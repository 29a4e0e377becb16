//! Request-stream generators: each workload's ops as a pure function of the
//! seed. The engine under test receives only what these produce.

use std::collections::VecDeque;

use cgselect_engine::{Accuracy, Bounds, QueryKind, Request};
use cgselect_seqsel::KernelRng;

/// Keys per `submit_ingest` of the churn workload.
pub const INGEST_KEYS: usize = 4096;
/// Ingests per window slide, and slides a key stays resident.
pub const SLIDE_INGESTS: usize = 8;
pub const WINDOW_SLIDES: usize = 8;

const HOT_VALUES: usize = 64;
const QUANTILE_GRID: u64 = 1000;
const DASHBOARD: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
/// The rank tolerance of every tolerant request in the benchmark.
pub const TOLERANCE: f64 = 0.01;

/// One submission of an op. Consecutive steps up to and including a `Reads`
/// are submitted together and then awaited together.
#[derive(Clone, Debug)]
pub enum Step {
    Ingest(Vec<u64>),
    Delete(Vec<u64>),
    Reads(Vec<Request<u64>>),
}

/// One closed-loop op: the client sends the next op only after every ticket
/// of this one resolved.
#[derive(Clone, Debug)]
pub struct Op {
    pub steps: Vec<Step>,
}

impl Op {
    pub fn read_groups(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, Step::Reads(_))).count()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// 16 fresh uniformly random exact ranks.
    ExactRanks,
    /// 32 requests the host answers without the shards in steady state.
    HostServed,
    /// One slide of the ingest window, a read pair after every mutation.
    WindowSlide,
}

impl StreamKind {
    /// Requests per `submit_many`; the frontend's `max_batch` is set to this
    /// so a group seals on arrival and no window timer is measured.
    pub fn group_size(self) -> usize {
        match self {
            StreamKind::ExactRanks => 16,
            StreamKind::HostServed => 32,
            StreamKind::WindowSlide => 2,
        }
    }
}

pub struct OpStream {
    kind: StreamKind,
    rng: KernelRng,
    /// Resident population the exact ranks are drawn below.
    n: u64,
    hot: Vec<u64>,
    key_salt: u64,
    keys_made: u64,
    window: VecDeque<Vec<u64>>,
    hash: u64,
}

impl OpStream {
    pub fn new(kind: StreamKind, n: u64, seed: u64) -> Self {
        let mut rng = KernelRng::derive(seed, 0x0957_EA11);
        let hot = (0..HOT_VALUES).map(|_| rng.next_u64() >> 1).collect();
        let key_salt = rng.next_u64();
        OpStream {
            kind,
            rng,
            n,
            hot,
            key_salt,
            keys_made: 0,
            window: VecDeque::new(),
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// FNV-1a over everything generated so far: two streams with equal
    /// hashes sent the engine the same requests in the same order.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    pub fn next_op(&mut self) -> Op {
        let op = match self.kind {
            StreamKind::ExactRanks => {
                let reads = (0..16).map(|_| Request::rank(self.rng.below(self.n))).collect();
                Op { steps: vec![Step::Reads(reads)] }
            }
            StreamKind::HostServed => Op { steps: vec![Step::Reads(self.host_served_group())] },
            StreamKind::WindowSlide => self.window_slide(),
        };
        for step in &op.steps {
            self.hash = fold_step(self.hash, step);
        }
        op
    }

    fn hot_value(&mut self) -> u64 {
        self.hot[self.rng.below(HOT_VALUES as u64) as usize]
    }

    fn host_served_group(&mut self) -> Vec<Request<u64>> {
        let mut group = Vec::with_capacity(32);
        for _ in 0..12 {
            let q = self.rng.below(QUANTILE_GRID + 1) as f64 / QUANTILE_GRID as f64;
            group.push(Request::quantile(q).within_rank(TOLERANCE));
        }
        for _ in 0..12 {
            let v = self.hot_value();
            group.push(Request::rank_of(v));
        }
        for _ in 0..4 {
            let (a, b) = (self.hot_value(), self.hot_value());
            group.push(Request::count_between(Bounds::closed(a.min(b), a.max(b))));
        }
        group.extend(DASHBOARD.iter().map(|&q| Request::quantile(q)));
        group
    }

    fn window_slide(&mut self) -> Op {
        let reads =
            || Step::Reads(vec![Request::median(), Request::quantile(0.99).within_rank(TOLERANCE)]);
        let mut steps = Vec::with_capacity(2 * SLIDE_INGESTS + 2);
        let mut slide_keys = Vec::with_capacity(SLIDE_INGESTS * INGEST_KEYS);
        for _ in 0..SLIDE_INGESTS {
            let keys: Vec<u64> = (0..INGEST_KEYS)
                .map(|_| {
                    self.keys_made += 1;
                    fresh_key(self.key_salt, self.keys_made)
                })
                .collect();
            slide_keys.extend_from_slice(&keys);
            steps.push(Step::Ingest(keys));
            steps.push(reads());
        }
        self.window.push_back(slide_keys);
        if self.window.len() > WINDOW_SLIDES {
            steps.push(Step::Delete(self.window.pop_front().expect("window is non-empty")));
            steps.push(reads());
        }
        Op { steps }
    }
}

/// The `counter`-th key of the ingest stream: odd, below 2⁶³, and distinct
/// for distinct counters (every step is a bijection on 62 bits), so a delete
/// of one slide's keys can never touch another slide's. Base keys are made
/// even by [`base_key`], so it cannot touch the base either.
pub fn fresh_key(salt: u64, counter: u64) -> u64 {
    const MASK: u64 = (1 << 62) - 1;
    let mut x = (counter ^ salt) & MASK;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & MASK;
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9) & MASK;
    x ^= x >> 29;
    (x << 1) | 1
}

/// Clears the low bit of a bulk-ingested key (see [`fresh_key`]).
pub fn base_key(x: u64) -> u64 {
    x & !1
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn fold_step(h: u64, step: &Step) -> u64 {
    match step {
        Step::Ingest(keys) => keys.iter().fold(fnv(h, 1), |h, &k| fnv(h, k)),
        Step::Delete(keys) => keys.iter().fold(fnv(h, 2), |h, &k| fnv(h, k)),
        Step::Reads(requests) => requests.iter().fold(fnv(h, 3), fold_request),
    }
}

fn fold_request(h: u64, r: &Request<u64>) -> u64 {
    let h = match r.accuracy {
        Accuracy::Exact => fnv(h, 0),
        Accuracy::WithinRank(t) => fnv(fnv(h, 1), t.to_bits()),
        Accuracy::HistogramOk => fnv(h, 2),
    };
    let bound = |h, b: Option<(u64, bool)>| match b {
        None => fnv(h, 0),
        Some((v, inclusive)) => fnv(fnv(h, 1 + inclusive as u64), v),
    };
    match &r.kind {
        QueryKind::Rank(k) => fnv(fnv(h, 10), *k),
        QueryKind::Quantile(q) => fnv(fnv(h, 11), q.to_bits()),
        QueryKind::Median => fnv(h, 12),
        QueryKind::RankOf(v) => fnv(fnv(h, 13), *v),
        QueryKind::CountBetween(b) => bound(bound(fnv(h, 14), b.lo), b.hi),
        other => unreachable!("the streams never generate {}", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_after(kind: StreamKind, seed: u64, ops: usize) -> u64 {
        let mut s = OpStream::new(kind, 1 << 20, seed);
        for _ in 0..ops {
            s.next_op();
        }
        s.hash()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for kind in [StreamKind::ExactRanks, StreamKind::HostServed, StreamKind::WindowSlide] {
            assert_eq!(hash_after(kind, 1, 20), hash_after(kind, 1, 20), "{kind:?}");
            assert_ne!(hash_after(kind, 1, 20), hash_after(kind, 2, 20), "{kind:?}");
            assert_ne!(hash_after(kind, 1, 20), hash_after(kind, 1, 21), "{kind:?}");
        }
    }

    #[test]
    fn groups_have_the_advertised_shape() {
        let mut exact = OpStream::new(StreamKind::ExactRanks, 1000, 3);
        let op = exact.next_op();
        let Step::Reads(group) = &op.steps[0] else { panic!("exact ops are one read group") };
        assert_eq!(group.len(), StreamKind::ExactRanks.group_size());
        assert!(group.iter().all(|r| matches!(r.kind, QueryKind::Rank(k) if k < 1000)));

        let mut served = OpStream::new(StreamKind::HostServed, 1000, 3);
        let Step::Reads(group) = &served.next_op().steps[0] else { panic!() };
        assert_eq!(group.len(), StreamKind::HostServed.group_size());
        let tolerant = group.iter().filter(|r| r.accuracy != Accuracy::Exact).count();
        assert_eq!(tolerant, 12);
    }

    #[test]
    fn every_slide_past_the_window_deletes_exactly_the_oldest_slide() {
        let mut s = OpStream::new(StreamKind::WindowSlide, 0, 9);
        let mut ingested: Vec<Vec<u64>> = Vec::new();
        for slide in 0..WINDOW_SLIDES + 3 {
            let op = s.next_op();
            let mut keys = Vec::new();
            for step in &op.steps {
                if let Step::Ingest(k) = step {
                    assert_eq!(k.len(), INGEST_KEYS);
                    keys.extend_from_slice(k);
                }
            }
            ingested.push(keys);
            let deleted = op.steps.iter().find_map(|s| match s {
                Step::Delete(k) => Some(k),
                _ => None,
            });
            if slide < WINDOW_SLIDES {
                assert!(deleted.is_none());
                assert_eq!(op.read_groups(), SLIDE_INGESTS);
            } else {
                assert_eq!(deleted, Some(&ingested[slide - WINDOW_SLIDES]));
                assert_eq!(op.read_groups(), SLIDE_INGESTS + 1);
            }
        }
    }

    #[test]
    fn fresh_keys_are_odd_distinct_and_below_2_pow_63() {
        let keys: Vec<u64> = (1..=100_000).map(|c| fresh_key(0xDEAD_BEEF, c)).collect();
        assert!(keys.iter().all(|k| k & 1 == 1 && *k < 1 << 63));
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), keys.len());
        assert_eq!(base_key(7), 6);
    }
}
