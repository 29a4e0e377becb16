//! The sorted-vector oracle every engine answer is checked against.
//!
//! The resident multiset is a sorted base (the bulk-ingested keys, which no
//! workload ever deletes) plus the sorted chunks of the ingest window. A
//! reported element is verified by its rank window `[count_lt, count_le)`,
//! so duplicates need no special case.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cgselect_engine::{
    quantile_rank, Accuracy, Bounds, MutationReport, Outcome, QueryKind, Request, Response,
    StandingHandle, StandingUpdate,
};

use crate::stream::{Op, Step};

pub struct Oracle {
    base: Arc<Vec<u64>>,
    chunks: VecDeque<Vec<u64>>,
    len: u64,
    /// Rank windows already computed against the current multiset; hot
    /// values repeat, and a 2²²-element binary search per response would
    /// cost more than the op being verified.
    windows: HashMap<u64, (u64, u64)>,
}

impl Oracle {
    /// `base` must be sorted ascending.
    pub fn new(base: Arc<Vec<u64>>) -> Self {
        debug_assert!(base.windows(2).all(|w| w[0] <= w[1]));
        let len = base.len() as u64;
        Oracle { base, chunks: VecDeque::new(), len, windows: HashMap::new() }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn ingest(&mut self, keys: &[u64]) {
        let mut chunk = keys.to_vec();
        chunk.sort_unstable();
        self.len += chunk.len() as u64;
        self.chunks.push_back(chunk);
        self.windows.clear();
    }

    /// Removes every occurrence of `keys` from the ingest window and returns
    /// how many elements went. Window keys are distinct from base keys by
    /// construction (see `stream::fresh_key`); if that ever failed, the
    /// engine's own removal count and population stamps would disagree with
    /// this oracle on the same op and be counted as failures.
    pub fn delete(&mut self, keys: &[u64]) -> u64 {
        let mut gone = keys.to_vec();
        gone.sort_unstable();
        let mut removed = 0u64;
        for chunk in &mut self.chunks {
            let before = chunk.len();
            chunk.retain(|k| gone.binary_search(k).is_err());
            removed += (before - chunk.len()) as u64;
        }
        self.chunks.retain(|c| !c.is_empty());
        self.len -= removed;
        self.windows.clear();
        removed
    }

    /// `(count_lt(v), count_le(v))` over the current multiset.
    pub fn rank_window(&mut self, v: u64) -> (u64, u64) {
        if let Some(&w) = self.windows.get(&v) {
            return w;
        }
        let mut lt = self.base.partition_point(|&x| x < v) as u64;
        let mut le = self.base.partition_point(|&x| x <= v) as u64;
        for c in &self.chunks {
            lt += c.partition_point(|&x| x < v) as u64;
            le += c.partition_point(|&x| x <= v) as u64;
        }
        self.windows.insert(v, (lt, le));
        (lt, le)
    }

    fn count_in(&mut self, b: &Bounds<u64>) -> u64 {
        if b.is_empty() {
            return 0;
        }
        let below_hi = match b.hi {
            None => self.len,
            Some((v, inclusive)) => {
                let (lt, le) = self.rank_window(v);
                if inclusive {
                    le
                } else {
                    lt
                }
            }
        };
        let below_lo = match b.lo {
            None => 0,
            Some((v, inclusive)) => {
                let (lt, le) = self.rank_window(v);
                if inclusive {
                    lt
                } else {
                    le
                }
            }
        };
        below_hi.saturating_sub(below_lo)
    }
}

/// What one step of an op came back with.
pub enum StepResult {
    Mutation(MutationReport),
    Reads(Vec<Outcome<u64>>),
}

/// One standing subscription under verification: every update must continue
/// the sequence gap-free and be a correct answer for the mutation version it
/// is stamped with.
pub struct StandingCheck {
    handle: StandingHandle<u64>,
    request: Request<u64>,
    next_seq: u64,
    pending: VecDeque<StandingUpdate<u64>>,
    pub updates: u64,
}

impl StandingCheck {
    pub fn new(handle: StandingHandle<u64>, request: Request<u64>) -> Self {
        StandingCheck { handle, request, next_seq: 0, pending: VecDeque::new(), updates: 0 }
    }
}

/// Failure accounting: ops attempted, ops that failed verification, and the
/// first few failure descriptions for the error report.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Counts one op; `problems` is empty when it verified.
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = 8usize.saturating_sub(self.notes.len());
            self.notes.extend(problems.into_iter().take(room));
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Replays ops against the oracle and counts the ops whose answers disagree.
pub struct Checker {
    oracle: Oracle,
    /// The engine's mutation version the oracle currently mirrors.
    version: u64,
    pub verdict: Verdict,
}

impl Checker {
    pub fn new(oracle: Oracle, version: u64) -> Self {
        Checker { oracle, version, verdict: Verdict::default() }
    }

    /// Counts an op that never produced results (refused or errored).
    pub fn record_error(&mut self, what: String) {
        self.verdict.record(vec![what]);
    }

    /// Applies `op` to the oracle step by step, checks each step's result and
    /// every standing update stamped with the version that step produced.
    pub fn verify_op(&mut self, op: &Op, results: &[StepResult], standing: &mut [StandingCheck]) {
        let mut problems = Vec::new();
        for s in standing.iter_mut() {
            s.pending.extend(s.handle.drain());
        }
        if op.steps.len() != results.len() {
            problems.push(format!("{} steps but {} results", op.steps.len(), results.len()));
        }
        for (step, result) in op.steps.iter().zip(results) {
            match (step, result) {
                (Step::Ingest(keys), StepResult::Mutation(report)) => {
                    self.oracle.ingest(keys);
                    self.version += 1;
                    if report.elements != keys.len() as u64 {
                        problems.push(format!("ingest reported {} elements", report.elements));
                    }
                }
                (Step::Delete(keys), StepResult::Mutation(report)) => {
                    let removed = self.oracle.delete(keys);
                    self.version += 1;
                    if report.elements != removed {
                        problems
                            .push(format!("delete removed {}, oracle {removed}", report.elements));
                    }
                }
                (Step::Reads(requests), StepResult::Reads(outcomes)) => {
                    if requests.len() != outcomes.len() {
                        problems.push("outcome count differs from request count".into());
                    }
                    for (req, out) in requests.iter().zip(outcomes) {
                        if let Err(e) = self.check_read(req, out) {
                            problems.push(e);
                        }
                    }
                }
                _ => problems.push("step and result kinds differ".into()),
            }
            self.check_standing(standing, &mut problems);
        }
        for s in standing.iter_mut() {
            if let Some(stale) = s.pending.pop_front() {
                problems.push(format!(
                    "standing update seq {} stamped with unknown version {}",
                    stale.seq, stale.outcome.freshness.version
                ));
                s.pending.clear();
            }
        }
        self.verdict.record(problems);
    }

    /// Checks the updates stamped with the current version (a subscription
    /// refreshes at most once per version).
    pub fn check_standing(&mut self, standing: &mut [StandingCheck], problems: &mut Vec<String>) {
        for s in standing.iter_mut() {
            while s.pending.front().is_some_and(|u| u.outcome.freshness.version <= self.version) {
                let u = s.pending.pop_front().expect("front checked");
                s.updates += 1;
                if u.seq != s.next_seq {
                    problems.push(format!("standing seq gap: got {}, want {}", u.seq, s.next_seq));
                }
                s.next_seq = u.seq + 1;
                if let Err(e) = self.check_read(&s.request, &u.outcome) {
                    problems.push(format!("standing update: {e}"));
                }
            }
        }
    }

    /// Checks the inaugural updates delivered at subscribe time (counted as
    /// one op).
    pub fn verify_subscribed(&mut self, standing: &mut [StandingCheck]) {
        let mut problems = Vec::new();
        for s in standing.iter_mut() {
            s.pending.extend(s.handle.drain());
        }
        self.check_standing(standing, &mut problems);
        self.verdict.record(problems);
    }

    fn check_read(&mut self, req: &Request<u64>, out: &Outcome<u64>) -> Result<(), String> {
        let n = self.oracle.len();
        if out.freshness.elements != n || out.freshness.version != self.version {
            return Err(format!(
                "freshness {:?} but oracle holds {n} elements at version {}",
                out.freshness, self.version
            ));
        }
        match &req.kind {
            QueryKind::Rank(k) => self.check_element(req, out, *k),
            QueryKind::Quantile(q) => self.check_element(req, out, quantile_rank(*q, n)),
            QueryKind::Median => self.check_element(req, out, (n - 1) / 2),
            QueryKind::RankOf(v) => {
                let (lt, _) = self.oracle.rank_window(*v);
                check_count(req, out, lt)
            }
            QueryKind::CountBetween(b) => {
                let want = self.oracle.count_in(b);
                check_count(req, out, want)
            }
            other => Err(format!("no oracle rule for {}", other.label())),
        }
    }

    fn check_element(
        &mut self,
        req: &Request<u64>,
        out: &Outcome<u64>,
        k: u64,
    ) -> Result<(), String> {
        match out.response {
            Response::Element(v) => {
                let (lt, le) = self.oracle.rank_window(v);
                if lt <= k && k < le {
                    Ok(())
                } else {
                    Err(format!("rank {k}: got {v}, whose rank window is [{lt}, {le})"))
                }
            }
            Response::Approximate { value, target_rank, max_rank_error } => {
                let Accuracy::WithinRank(t) = req.accuracy else {
                    return Err(format!("approximate answer under {:?}", req.accuracy));
                };
                let budget = (t * self.oracle.len() as f64).ceil() as u64;
                let (lt, le) = self.oracle.rank_window(value);
                // Distance from the target to the nearest rank `value` holds.
                let hi = le.max(lt + 1) - 1;
                let distance = if k < lt { lt - k } else { k.saturating_sub(hi) };
                if target_rank != k {
                    Err(format!("target rank {target_rank}, oracle {k}"))
                } else if max_rank_error > budget {
                    Err(format!("reported error {max_rank_error} over the budget {budget}"))
                } else if distance > max_rank_error {
                    Err(format!("rank {k}: {value} is {distance} away, bound {max_rank_error}"))
                } else {
                    Ok(())
                }
            }
            ref other => Err(format!("rank {k}: unexpected response {other:?}")),
        }
    }
}

fn check_count(req: &Request<u64>, out: &Outcome<u64>, want: u64) -> Result<(), String> {
    let Response::Count { count, max_error } = out.response else {
        return Err(format!("{}: unexpected response {:?}", req.kind.label(), out.response));
    };
    if req.accuracy == Accuracy::Exact && max_error != 0 {
        return Err(format!("{}: exact contract, error bound {max_error}", req.kind.label()));
    }
    if count.abs_diff(want) > max_error {
        return Err(format!("{}: got {count}±{max_error}, oracle {want}", req.kind.label()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_engine::{CostAttribution, Freshness, Served};

    fn outcome(response: Response<u64>, version: u64, elements: u64) -> Outcome<u64> {
        Outcome {
            response,
            served: Served::Index,
            cost: CostAttribution::default(),
            freshness: Freshness { version, elements },
        }
    }

    fn oracle() -> Oracle {
        Oracle::new(Arc::new(vec![10, 20, 20, 30, 40]))
    }

    #[test]
    fn rank_windows_follow_ingest_and_delete() {
        let mut o = oracle();
        assert_eq!(o.rank_window(20), (1, 3));
        assert_eq!(o.rank_window(25), (3, 3));
        o.ingest(&[25, 5]);
        assert_eq!(o.len(), 7);
        assert_eq!(o.rank_window(25), (4, 5));
        assert_eq!(o.rank_window(20), (2, 4));
        assert_eq!(o.delete(&[5, 25, 99]), 2);
        assert_eq!(o.len(), 5);
        assert_eq!(o.rank_window(20), (1, 3));
        assert_eq!(o.count_in(&Bounds::closed(20, 30)), 3);
        assert_eq!(o.count_in(&Bounds::open(20, 30)), 0);
    }

    #[test]
    fn exact_and_approximate_answers_are_judged_by_rank_window() {
        let mut c = Checker::new(oracle(), 1);
        let exact = Request::rank(2);
        assert!(c.check_read(&exact, &outcome(Response::Element(20), 1, 5)).is_ok());
        assert!(c.check_read(&exact, &outcome(Response::Element(30), 1, 5)).is_err());
        // Wrong freshness stamp is a failure even with the right element.
        assert!(c.check_read(&exact, &outcome(Response::Element(20), 2, 5)).is_err());

        let loose = Request::rank(0).within_rank(0.4); // budget ⌈0.4·5⌉ = 2
        let approx =
            |value, err| Response::Approximate { value, target_rank: 0, max_rank_error: err };
        assert!(c.check_read(&loose, &outcome(approx(20, 1), 1, 5)).is_ok());
        assert!(c.check_read(&loose, &outcome(approx(30, 2), 1, 5)).is_err()); // 3 away
        assert!(c.check_read(&loose, &outcome(approx(10, 3), 1, 5)).is_err()); // over budget
        assert!(c.check_read(&exact, &outcome(approx(20, 0), 1, 5)).is_err()); // exact contract
    }

    #[test]
    fn counts_respect_their_reported_error() {
        let mut c = Checker::new(oracle(), 1);
        let req = Request::rank_of(30u64);
        let count = |count, max_error| outcome(Response::Count { count, max_error }, 1, 5);
        assert!(c.check_read(&req, &count(3, 0)).is_ok());
        assert!(c.check_read(&req, &count(4, 0)).is_err());
        assert!(c.check_read(&req, &count(4, 1)).is_err()); // exact contract
        assert!(c.check_read(&req.clone().histogram_ok(), &count(4, 1)).is_ok());
    }
}
