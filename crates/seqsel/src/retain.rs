//! Delete compaction: keep the elements of a run that a sorted delete list
//! does not hold.
//!
//! A delete removes every occurrence of a set of values from a shard's
//! resident runs. Each resident element is looked up in the run's slice of
//! the sorted, deduplicated delete list, and the survivors close up behind
//! a write cursor. One binary search per element is a chain of dependent
//! loads — each probe waits for the one before — so a scalar loop spends
//! its time stalled, not comparing. [`retain_absent`] runs
//! [`SEARCH_LANES`] elements' bisections in lockstep instead: the lanes'
//! probes are independent of each other, so their loads overlap. Each
//! lane steps branchlessly (`std::hint::select_unpredictable`), because a
//! plain `if` step can compile to a branch, which mispredicts on about
//! every other probe. A delete list of up to [`MAX_TABLE`] values is first
//! copied into a stack table of exactly that many entries (padded with its
//! last value), so once inlined the bisection runs a fixed schedule over a
//! fixed length.
//!
//! [`retain_absent_reference`] is the scalar loop the engine's delete ran
//! before: the differential-test oracle and the wall-clock baseline. Both
//! leave the same survivors in the same order, offer the same removed
//! elements in the same order and charge the same [`OpCount`] — the charge
//! is a function of the run and the list alone, so how the kernel searches
//! is free.

use std::ops::Range;

use crate::ops::OpCount;
use crate::splitters::bucket_search_cmps;

/// Elements whose bisections [`retain_absent`] runs in lockstep.
const SEARCH_LANES: usize = 8;

/// Length of the padded stack table (2 KiB of `u64`): a delete list no
/// longer than this is searched through it, a longer one in place. On
/// `bench wallclock`'s 2^20-element run against 170 values the kernel
/// runs 1.8-2.0x the reference through the table, 1.4x on the list in
/// place.
const MAX_TABLE: usize = 256;

/// Compacts the run `data[run]` down to start at `write` (`write ≤
/// run.start`): the elements absent from `wanted` are kept in their order,
/// every other one is offered to `removed`, in order. Returns the new write
/// position, so the run lost `run.len() − (returned − write)` elements.
///
/// `wanted` must be sorted and free of duplicates. An empty `wanted` moves
/// the run as one block. Otherwise every element is charged what the
/// standard library's binary search makes of it — `⌈log₂ m⌉ + 1` probes
/// for `m` wanted values ([`bucket_search_cmps`]), plus one equality test
/// when its insertion point is in range — and every survivor that changes
/// place one move, exactly as [`retain_absent_reference`] charges.
///
/// # Panics
/// Panics if `write > run.start` or `run` is out of `data`'s bounds.
pub fn retain_absent<T: Copy + Ord>(
    data: &mut [T],
    write: usize,
    run: Range<usize>,
    wanted: &[T],
    removed: impl FnMut(T),
    ops: &mut OpCount,
) -> usize {
    assert!(write <= run.start && run.end <= data.len(), "retain_absent: bad run");
    let Some(&last) = wanted.last() else {
        return move_block(data, write, run, ops);
    };
    let (start, len) = (write, run.len());
    let tally = if wanted.len() <= MAX_TABLE {
        compact(data, write, run.clone(), &padded(wanted)[..], last, removed)
    } else {
        compact(data, write, run.clone(), wanted, last, removed)
    };
    let kept = tally.write - start;
    ops.cmps += len as u64 * bucket_search_cmps(wanted.len()) + tally.in_range;
    // A survivor moved unless the cursor still stood on it: the run did
    // not start behind the cursor, and nothing before it was removed.
    let settled = if start == run.start { tally.first_gone - run.start } else { 0 };
    ops.moves += (kept - settled) as u64;
    tally.write
}

/// The compaction loop over one sorted list.
#[inline(always)]
fn compact<T: Copy + Ord, F: FnMut(T)>(
    data: &mut [T],
    write: usize,
    run: Range<usize>,
    wanted: &[T],
    last: T,
    removed: F,
) -> Cursor<T, F> {
    let mut cursor = Cursor { write, first_gone: run.end, in_range: 0, last, removed };
    let mut read = run.start;
    // Full blocks of lanes, then the tail one element at a time.
    while run.end - read >= SEARCH_LANES {
        let xs: [T; SEARCH_LANES] =
            data[read..read + SEARCH_LANES].try_into().expect("a full block");
        cursor.settle(data, read, &xs, hits(wanted, &xs));
        read += SEARCH_LANES;
    }
    for at in read..run.end {
        let xs = [data[at]];
        cursor.settle(data, at, &xs, hits(wanted, &xs));
    }
    cursor
}

/// The compaction's write side and its tallies.
struct Cursor<T, F> {
    /// Where the next survivor goes.
    write: usize,
    /// Position of the first removed element (the run's end if none).
    first_gone: usize,
    /// Elements no greater than `last`: those whose binary search ends in
    /// range and so makes the equality test.
    in_range: u64,
    /// The greatest wanted value.
    last: T,
    /// Hears of each removed element, in order.
    removed: F,
}

impl<T: Copy + Ord, F: FnMut(T)> Cursor<T, F> {
    /// Writes the survivors among `xs` (read from `at..`) and offers the
    /// rest, in order; `hits` has bit `l` set when `xs[l]` goes. A block
    /// with no hit — nearly every block of a delete — is one copy.
    #[inline(always)]
    fn settle<const L: usize>(&mut self, data: &mut [T], at: usize, xs: &[T; L], hits: u32) {
        self.in_range += xs.iter().map(|&x| u64::from(x <= self.last)).sum::<u64>();
        if hits == 0 {
            data[self.write..self.write + L].copy_from_slice(xs);
            self.write += L;
            return;
        }
        for (l, &x) in xs.iter().enumerate() {
            if hits >> l & 1 == 1 {
                (self.removed)(x);
                self.first_gone = self.first_gone.min(at + l);
            } else {
                data[self.write] = x;
                self.write += 1;
            }
        }
    }
}

/// `wanted` (sorted, `1 ≤ len ≤ MAX_TABLE`) padded to [`MAX_TABLE`]
/// entries with its last value, so it stays sorted.
fn padded<T: Copy>(wanted: &[T]) -> [T; MAX_TABLE] {
    let mut table = [wanted[wanted.len() - 1]; MAX_TABLE];
    table[..wanted.len()].copy_from_slice(wanted);
    table
}

/// Bit `l` set when `xs[l]` is in `list` (sorted; deduplicated or
/// padded). Each lane bisects through the standard library's
/// size-halving schedule to the last entry `≤` its element (or the first,
/// when none is) and tests that entry for equality.
#[inline(always)]
fn hits<T: Copy + Ord, const L: usize>(list: &[T], xs: &[T; L]) -> u32 {
    let mut base = [0usize; L];
    let mut size = list.len();
    while size > 1 {
        let half = size / 2;
        for (b, &x) in base.iter_mut().zip(xs) {
            let mid = *b + half;
            *b = std::hint::select_unpredictable(list[mid] <= x, mid, *b);
        }
        size -= half;
    }
    xs.iter()
        .zip(base)
        .enumerate()
        .fold(0, |hits, (l, (&x, b))| hits | u32::from(list[b] == x) << l)
}

/// The scalar compaction [`retain_absent`] replaces: one standard-library
/// binary search per element, each counting its comparisons as made. Kept
/// as the differential-test reference and the wall-clock baseline.
///
/// # Panics
/// Panics if `write > run.start` or `run` is out of `data`'s bounds.
pub fn retain_absent_reference<T: Copy + Ord>(
    data: &mut [T],
    write: usize,
    run: Range<usize>,
    wanted: &[T],
    mut removed: impl FnMut(T),
    ops: &mut OpCount,
) -> usize {
    assert!(write <= run.start && run.end <= data.len(), "retain_absent: bad run");
    if wanted.is_empty() {
        return move_block(data, write, run, ops);
    }
    let mut write = write;
    for read in run {
        let x = data[read];
        let i = wanted.partition_point(|v| {
            ops.cmps += 1;
            v < &x
        });
        let hit = i < wanted.len() && {
            ops.cmps += 1;
            wanted[i] == x
        };
        if hit {
            removed(x);
        } else {
            if write != read {
                data[write] = x;
                ops.moves += 1;
            }
            write += 1;
        }
    }
    write
}

/// A run nothing can match in moves as one block, unsearched.
fn move_block<T: Copy>(
    data: &mut [T],
    write: usize,
    run: Range<usize>,
    ops: &mut OpCount,
) -> usize {
    if write != run.start {
        data.copy_within(run.clone(), write);
        ops.moves += run.len() as u64;
    }
    write + run.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::KernelRng;
    use cgselect_runtime::OrdF64;

    /// Runs both compactions over `data[gap..]` written back from 0 and
    /// checks survivors, removed sequence, write position and charges.
    fn check<T: Copy + Ord + std::fmt::Debug>(data: &[T], gap: usize, wanted: &[T]) {
        let gap = gap.min(data.len());
        let run = gap..data.len();
        let (mut a, mut b) = (data.to_vec(), data.to_vec());
        let (mut gone_a, mut gone_b) = (Vec::new(), Vec::new());
        let (mut ops_a, mut ops_b) = (OpCount::new(), OpCount::new());
        let wa =
            retain_absent_reference(&mut a, 0, run.clone(), wanted, |x| gone_a.push(x), &mut ops_a);
        let wb = retain_absent(&mut b, 0, run, wanted, |x| gone_b.push(x), &mut ops_b);
        let ctx = || format!("len {} gap {gap} wanted {}", data.len(), wanted.len());
        assert_eq!(wa, wb, "write position: {}", ctx());
        assert_eq!(a[..wa], b[..wb], "survivors: {}", ctx());
        assert_eq!(gone_a, gone_b, "removed sequence: {}", ctx());
        assert_eq!(ops_a, ops_b, "charges: {}", ctx());
        let expect: Vec<T> =
            data[gap..].iter().copied().filter(|x| wanted.binary_search(x).is_err()).collect();
        assert_eq!(a[..wa], expect[..], "reference survivors: {}", ctx());
    }

    /// `m` distinct values, sorted: as many of `pool`'s as there are (up to
    /// `m`), then `fresh(0), fresh(1), …` until there are `m`.
    fn wanted_from<T: Copy + Ord>(pool: &[T], m: usize, fresh: impl Fn(u64) -> T) -> Vec<T> {
        let mut w: std::collections::BTreeSet<T> = pool.iter().copied().take(m).collect();
        let mut i = 0u64;
        while w.len() < m {
            w.insert(fresh(i));
            i += 1;
        }
        w.into_iter().collect()
    }

    macro_rules! grid {
        ($t:ty, $conv:expr) => {{
            let conv = $conv;
            let mut rng = KernelRng::new(0x5eed);
            let mut lengths: Vec<usize> = (0..=64).collect();
            lengths.extend((1..=12).flat_map(|e| [(1usize << e) - 1, 1 << e, (1 << e) + 1]));
            lengths.sort_unstable();
            lengths.dedup();
            let runs: Vec<usize> = (0..=17).chain([1000]).collect();
            for &len in &runs {
                let random: Vec<$t> = (0..len).map(|_| conv(rng.next_u64() % 5000)).collect();
                let dups: Vec<$t> = (0..len).map(|_| conv(rng.next_u64() % 6)).collect();
                for data in [&random, &dups] {
                    for &m in &lengths {
                        // Some hits (drawn from the run), no hits (values
                        // above the run's range) and all hits (every value
                        // the run holds, plus more).
                        let some = wanted_from(data, m, |i| conv(2 * i + 1));
                        let none: Vec<$t> = (0..m as u64).map(|i| conv(10_000 + i)).collect();
                        let mut all: Vec<$t> = data.to_vec();
                        all.extend((0..m as u64).map(|i| conv(20_000 + i)));
                        all.sort_unstable();
                        all.dedup();
                        for wanted in [&some, &none, &all] {
                            for gap in [0, 3] {
                                check(data, gap, wanted);
                            }
                        }
                    }
                }
            }
        }};
    }

    #[test]
    fn kernel_matches_reference_across_lengths_and_key_types() {
        grid!(u64, |x: u64| x);
        grid!(u32, |x: u64| x as u32);
        grid!(i64, |x: u64| x as i64 - 2500);
        grid!(OrdF64, |x: u64| OrdF64(x as f64 * 0.5 - 100.0));
    }

    #[test]
    fn compaction_writes_behind_an_earlier_cursor() {
        // Two runs compacted in turn into one buffer, as a delete does
        // bucket by bucket: the second run starts behind the cursor the
        // first left.
        let mut data: Vec<u64> = (0..40).collect();
        let mut ops = OpCount::new();
        let mut gone = Vec::new();
        let w = retain_absent(&mut data, 0, 0..20, &[3, 4, 19], |x| gone.push(x), &mut ops);
        let w = retain_absent(&mut data, w, 20..40, &[], |x| gone.push(x), &mut ops);
        let w = retain_absent(&mut data, w, w..w, &[1], |x| gone.push(x), &mut ops);
        assert_eq!(w, 37);
        let expect: Vec<u64> = (0..40).filter(|x| ![3, 4, 19].contains(x)).collect();
        assert_eq!(data[..w], expect[..]);
        assert_eq!(gone, vec![3, 4, 19]);
        // 20 searches of 3 values: 3 probes each plus the equality test,
        // every insertion point being in range; 14 + 20 survivors moved.
        assert_eq!(ops, OpCount { cmps: 20 * 4, moves: 14 + 20 });
    }
}
