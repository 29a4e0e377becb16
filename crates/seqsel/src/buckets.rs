//! The local bucket structure of the paper's bucket-based selection
//! algorithm (§3.2).
//!
//! Each processor preprocesses its local data into up to `log p` buckets
//! such that every element of bucket `i` is smaller than or equal to the
//! separator `seps[i]`, which is strictly smaller than every element of
//! bucket `i+1`. The buckets are built by recursive median splitting in
//! `O((n/p) log log p)` time. Afterwards, two per-iteration operations
//! become cheap:
//!
//! * **local median by rank** — the bucket containing a rank is found by
//!   binary search over the bucket boundaries, then a sequential selection
//!   runs inside that one bucket (`O(log log p + n/(p log p))`);
//! * **split by an estimated median** — only the single straddling bucket
//!   must be partitioned; all other buckets are counted wholesale via the
//!   separators, and the partition point becomes a new bucket boundary.
//!
//! The active window of the selection algorithm always begins and ends on
//! bucket boundaries; both operations preserve that invariant.

use std::ops::Range;

use crate::kernels::{partition3_kernel, partition_bound_kernel};
use crate::ops::OpCount;
use crate::rng::KernelRng;
use crate::splitters::SepBound;
use crate::{select_with, LocalKernel};

/// Local data reorganized into value-ordered buckets.
///
/// Invariants (checked by `debug_validate` in tests):
/// * `bounds` is strictly increasing, `bounds[0] == 0`,
///   `bounds.last() == data.len()` (except the empty structure `[0, 0]`);
/// * `seps.len() + 2 == bounds.len()`;
/// * all elements of buckets `0..=i` are ≤ `seps[i]` and all elements of
///   buckets `i+1..` are > `seps[i]`.
#[derive(Debug, Clone)]
pub struct Buckets<T> {
    data: Vec<T>,
    bounds: Vec<usize>,
    seps: Vec<T>,
}

impl<T: Copy + Ord> Buckets<T> {
    /// Builds the structure over `data` with at most `max_buckets` buckets
    /// (the paper uses `log p`), by recursive median splitting with the
    /// chosen sequential kernel.
    ///
    /// Degenerate splits (heavily duplicated data where the median equals
    /// the maximum) terminate early with fewer buckets; correctness is
    /// unaffected.
    pub fn build(
        data: Vec<T>,
        max_buckets: usize,
        kernel: LocalKernel,
        rng: &mut KernelRng,
        ops: &mut OpCount,
    ) -> Self {
        assert!(max_buckets >= 1, "need at least one bucket");
        let mut this = Buckets { data, bounds: vec![0], seps: Vec::new() };
        let len = this.data.len();
        if len == 0 {
            this.bounds.push(0);
            return this;
        }
        this.build_rec(0, len, max_buckets, kernel, rng, ops);
        this
    }

    fn build_rec(
        &mut self,
        start: usize,
        end: usize,
        nb: usize,
        kernel: LocalKernel,
        rng: &mut KernelRng,
        ops: &mut OpCount,
    ) {
        let len = end - start;
        if nb <= 1 || len <= 1 {
            self.bounds.push(end);
            return;
        }
        let slice = &mut self.data[start..end];
        let m = select_with(kernel, slice, (len - 1) / 2, rng, ops);
        let split = partition_bound_kernel(&mut self.data[start..end], SepBound::le(m), ops);
        if split == len {
            // Everything ≤ m (e.g. all keys equal): no proper split exists
            // here; keep this range as a single bucket.
            self.bounds.push(end);
            return;
        }
        let nb_left = nb.div_ceil(2);
        self.build_rec(start, start + split, nb_left, kernel, rng, ops);
        self.seps.push(m);
        self.build_rec(start + split, end, nb - nb_left, kernel, rng, ops);
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the structure holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of buckets currently in the structure (splits add buckets).
    pub fn num_buckets(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The underlying (bucket-permuted) element storage.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Copies out the elements of an aligned window, for the final gather.
    pub fn window_elements(&self, window: Range<usize>) -> Vec<T> {
        self.data[window].to_vec()
    }

    /// Full range of the structure — the initial active window.
    pub fn full_window(&self) -> Range<usize> {
        0..self.data.len()
    }

    fn bound_index(&self, pos: usize, what: &str) -> usize {
        self.bounds
            .binary_search(&pos)
            .unwrap_or_else(|_| panic!("window {what} {pos} is not on a bucket boundary"))
    }

    /// Returns the element of 0-based `rank` within the aligned `window`
    /// (which must start and end on bucket boundaries).
    ///
    /// Finds the bucket containing the rank through the boundary offsets —
    /// because buckets are value-ordered, the window's rank-r element lives
    /// in the bucket covering position `window.start + r` — then selects
    /// within that single bucket.
    ///
    /// # Panics
    /// Panics if the window is misaligned or `rank >= window.len()`.
    pub fn select_rank(
        &mut self,
        window: Range<usize>,
        rank: usize,
        kernel: LocalKernel,
        rng: &mut KernelRng,
        ops: &mut OpCount,
    ) -> T {
        assert!(rank < window.len(), "rank {rank} out of range for window of {}", window.len());
        let pos = window.start + rank;
        // Binary search over bucket boundaries: O(log #buckets) comparisons.
        let b = match self.bounds.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        ops.cmps += (self.bounds.len().ilog2() + 1) as u64;
        let bs = self.bounds[b];
        let be = self.bounds[b + 1];
        debug_assert!(bs >= window.start && be <= window.end, "window must be aligned");
        select_with(kernel, &mut self.data[bs..be], pos - bs, rng, ops)
    }

    /// Counts the elements ≤ `v` inside the aligned `window`, partitioning
    /// only the straddling bucket (paper §3.2: "only the elements in this
    /// bucket need to be split") and inserting the partition point as a new
    /// bucket boundary so that `window.start + count` is itself aligned.
    ///
    /// Returns the count relative to `window.start`.
    pub fn split_le(&mut self, window: Range<usize>, v: T, ops: &mut OpCount) -> usize {
        if window.is_empty() {
            return 0;
        }
        let bl = self.bound_index(window.start, "start");
        let br = self.bound_index(window.end, "end");
        debug_assert!(bl < br);

        // Locate the straddling bucket via the separators: every bucket
        // whose separator is < v lies entirely at or below v; every bucket
        // strictly after a separator ≥ v lies entirely above v.
        let seps_window = &self.seps[bl..br - 1];
        let mut cmps = 0u64;
        let pp = seps_window.partition_point(|s| {
            cmps += 1;
            *s < v
        });
        ops.cmps += cmps.max(1);
        let b = bl + pp;

        let bs = self.bounds[b];
        let be = self.bounds[b + 1];
        let idx = partition_bound_kernel(&mut self.data[bs..be], SepBound::le(v), ops);
        let cut = bs + idx;
        if cut > bs && cut < be {
            // Proper split: record the new boundary and its separator.
            self.bounds.insert(b + 1, cut);
            self.seps.insert(b, v);
        }
        cut - window.start
    }

    /// Counts `(lt, le)` — the elements `< v` and `≤ v` inside the aligned
    /// `window` — with a single three-way partition of the straddling
    /// bucket. Both counts become aligned bucket boundaries, so the caller
    /// can narrow its window to the `< v` zone, the `> v` zone, *or* detect
    /// that the target sits inside `v`'s equality class (`lt ≤ rank < le`),
    /// which is what makes the bucket-based algorithm immune to the
    /// duplicate-key livelock of a plain `≤`/`>` split.
    pub fn split_bracket(
        &mut self,
        window: Range<usize>,
        v: T,
        ops: &mut OpCount,
    ) -> (usize, usize) {
        if window.is_empty() {
            return (0, 0);
        }
        let bl = self.bound_index(window.start, "start");
        let br = self.bound_index(window.end, "end");
        debug_assert!(bl < br);

        let seps_window = &self.seps[bl..br - 1];
        let mut cmps = 0u64;
        let pp = seps_window.partition_point(|s| {
            cmps += 1;
            *s < v
        });
        ops.cmps += cmps.max(1);
        let b = bl + pp;

        let bs = self.bounds[b];
        let be = self.bounds[b + 1];
        let (a_rel, b_rel) = partition3_kernel(&mut self.data[bs..be], v, v, ops);
        let cut1 = bs + a_rel;
        let cut2 = bs + b_rel;
        // Insert the upper boundary first; its separator is v itself
        // (left zone ≤ v < right zone).
        if cut2 > bs && cut2 < be {
            self.bounds.insert(b + 1, cut2);
            self.seps.insert(b, v);
        }
        // The lower boundary separates "< v" from "== v"; its separator is
        // the maximum of the strictly-smaller zone.
        if cut1 > bs && cut1 < cut2 {
            let sep1 = *self.data[bs..cut1].iter().max().expect("non-empty lt zone");
            ops.cmps += (cut1 - bs) as u64;
            self.bounds.insert(b + 1, cut1);
            self.seps.insert(b, sep1);
        }
        (cut1 - window.start, cut2 - window.start)
    }

    /// Exhaustively validates the structural invariants (test helper).
    pub fn debug_validate(&self) {
        assert!(self.bounds.len() >= 2);
        assert_eq!(self.bounds[0], 0);
        assert_eq!(*self.bounds.last().unwrap(), self.data.len());
        assert_eq!(self.seps.len() + 2, self.bounds.len());
        for w in self.bounds.windows(2) {
            if self.data.is_empty() {
                assert!(w[0] <= w[1]);
            } else {
                assert!(w[0] < w[1], "bounds not strictly increasing: {:?}", self.bounds);
            }
        }
        for (i, sep) in self.seps.iter().enumerate() {
            let left = &self.data[self.bounds[i]..self.bounds[i + 1]];
            let right = &self.data[self.bounds[i + 1]..self.bounds[i + 2]];
            assert!(left.iter().all(|x| x <= sep), "bucket {i} exceeds its separator");
            assert!(right.iter().all(|x| x > sep), "bucket {} not above separator {i}", i + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_u64(data: Vec<u64>, nb: usize) -> Buckets<u64> {
        let mut rng = KernelRng::new(3);
        let mut ops = OpCount::new();
        let b = Buckets::build(data, nb, LocalKernel::Randomized, &mut rng, &mut ops);
        b.debug_validate();
        b
    }

    #[test]
    fn build_orders_buckets() {
        let data: Vec<u64> = vec![9, 1, 8, 2, 7, 3, 6, 4, 5, 0, 15, 12, 11, 14, 13, 10];
        let b = build_u64(data.clone(), 4);
        assert!(b.num_buckets() >= 2 && b.num_buckets() <= 4);
        assert_eq!(b.len(), data.len());
        // Multiset preserved.
        let mut content = b.data().to_vec();
        content.sort_unstable();
        let mut orig = data;
        orig.sort_unstable();
        assert_eq!(content, orig);
    }

    #[test]
    fn build_empty_and_tiny() {
        let b = build_u64(vec![], 8);
        assert!(b.is_empty());
        assert_eq!(b.num_buckets(), 1);
        let b = build_u64(vec![42], 8);
        assert_eq!(b.num_buckets(), 1);
        assert_eq!(b.data(), &[42]);
    }

    #[test]
    fn build_all_equal_degenerates_gracefully() {
        let b = build_u64(vec![7; 100], 8);
        assert_eq!(b.num_buckets(), 1);
    }

    #[test]
    fn select_rank_matches_oracle() {
        let mut rng = KernelRng::new(11);
        let data: Vec<u64> = (0..500).map(|_| rng.next_u64() % 100).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();

        let mut b = build_u64(data, 6);
        let w = b.full_window();
        let mut ops = OpCount::new();
        for rank in [0usize, 1, 100, 250, 499] {
            let got = b.select_rank(w.clone(), rank, LocalKernel::Randomized, &mut rng, &mut ops);
            assert_eq!(got, sorted[rank], "rank={rank}");
            b.debug_validate();
        }
    }

    #[test]
    fn split_le_counts_and_stays_aligned() {
        let mut rng = KernelRng::new(13);
        let data: Vec<u64> = (0..300).map(|_| rng.next_u64() % 1000).collect();
        let oracle = |v: u64| data.iter().filter(|&&x| x <= v).count();

        let mut b = build_u64(data.clone(), 5);
        let mut ops = OpCount::new();
        for v in [0u64, 13, 500, 700, 999, 1500] {
            let w = b.full_window();
            let cnt = b.split_le(w, v, &mut ops);
            assert_eq!(cnt, oracle(v), "v={v}");
            b.debug_validate();
        }
    }

    #[test]
    fn split_then_narrow_window_iterates_like_the_algorithm() {
        // Simulate the selection loop: repeatedly split on a value and
        // shrink the window to one side; counts must stay consistent.
        let mut rng = KernelRng::new(17);
        let data: Vec<u64> = (0..400).map(|_| rng.next_u64() % 256).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();

        let mut b = build_u64(data, 6);
        let mut ops = OpCount::new();
        let mut window = b.full_window();
        // Narrow towards global rank 137.
        let target_rank = 137usize;
        let mut rank = target_rank;
        for _ in 0..6 {
            if window.len() <= 4 {
                break;
            }
            let guess = b.select_rank(
                window.clone(),
                rank / 2,
                LocalKernel::Randomized,
                &mut rng,
                &mut ops,
            );
            let cnt = b.split_le(window.clone(), guess, &mut ops);
            b.debug_validate();
            if rank < cnt {
                window = window.start..window.start + cnt;
            } else {
                window = window.start + cnt..window.end;
                rank -= cnt;
            }
        }
        let mut remaining = b.window_elements(window.clone());
        remaining.sort_unstable();
        assert_eq!(remaining[rank], sorted[target_rank]);
    }

    #[test]
    fn split_le_value_below_everything() {
        let mut b = build_u64(vec![10, 20, 30, 40, 50, 60, 70, 80], 4);
        let mut ops = OpCount::new();
        let w = b.full_window();
        assert_eq!(b.split_le(w, 5, &mut ops), 0);
        b.debug_validate();
    }

    #[test]
    fn split_le_empty_window() {
        let mut b = build_u64(vec![1, 2, 3, 4], 2);
        let mut ops = OpCount::new();
        assert_eq!(b.split_le(0..0, 2, &mut ops), 0);
    }

    #[test]
    #[should_panic(expected = "not on a bucket boundary")]
    fn misaligned_window_panics() {
        let mut b = build_u64((0..64).collect(), 4);
        let mut ops = OpCount::new();
        // Position 1 is inside the first bucket, not a boundary.
        let _ = b.split_le(1..64, 10, &mut ops);
    }

    #[test]
    fn split_bracket_counts_lt_and_le() {
        let mut rng = KernelRng::new(23);
        let data: Vec<u64> = (0..400).map(|_| rng.next_u64() % 50).collect();
        let oracle_lt = |v: u64| data.iter().filter(|&&x| x < v).count();
        let oracle_le = |v: u64| data.iter().filter(|&&x| x <= v).count();

        let mut b = build_u64(data.clone(), 6);
        let mut ops = OpCount::new();
        for v in [0u64, 7, 25, 49, 60] {
            let w = b.full_window();
            let (lt, le) = b.split_bracket(w, v, &mut ops);
            assert_eq!(lt, oracle_lt(v), "v={v}");
            assert_eq!(le, oracle_le(v), "v={v}");
            b.debug_validate();
        }
    }

    #[test]
    fn split_bracket_all_equal() {
        let mut b = build_u64(vec![5; 64], 4);
        let mut ops = OpCount::new();
        let w = b.full_window();
        let (lt, le) = b.split_bracket(w, 5, &mut ops);
        assert_eq!((lt, le), (0, 64));
        b.debug_validate();
    }

    #[test]
    fn split_bracket_narrow_to_eq_class() {
        // After a bracket split, [start+lt, start+le) is exactly the
        // equality class of v.
        let data: Vec<u64> = vec![9, 1, 5, 5, 7, 0, 5, 3, 8, 2, 5, 5];
        let mut b = build_u64(data, 4);
        let mut ops = OpCount::new();
        let w = b.full_window();
        let (lt, le) = b.split_bracket(w.clone(), 5, &mut ops);
        let eq = b.window_elements(w.start + lt..w.start + le);
        assert_eq!(eq, vec![5; 5]);
        b.debug_validate();
    }

    #[test]
    fn deterministic_kernel_build() {
        let mut rng = KernelRng::new(0);
        let mut ops = OpCount::new();
        let data: Vec<u64> = (0..128).rev().collect();
        let b = Buckets::build(data, 8, LocalKernel::Deterministic, &mut rng, &mut ops);
        b.debug_validate();
        assert!(b.num_buckets() > 1);
        assert!(ops.cmps > 0);
    }
}
