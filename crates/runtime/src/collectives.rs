//! The paper's parallel primitives (§2.2), built on point-to-point messages.
//!
//! Every collective is implemented with the classical binomial-tree /
//! dissemination / recursive-doubling communication patterns so the modeled
//! costs match the bounds the paper states:
//!
//! * `Broadcast`, `Combine`, `Parallel Prefix` — `O((τ + μ) log p)`
//! * `Gather`, `Global Concatenate` — `O(τ log p + μ p m)`
//! * `Transportation primitive` (all-to-all personalized) — `O(τ p + 2 μ t)`
//!
//! All collectives must be called by **every** processor of the machine in
//! the same order (SPMD discipline). Tags are epoch-scoped internally, so
//! user tags and back-to-back collectives never collide.

use crate::process::Proc;
use crate::wiremsg::WireMsg;

/// Base for internal collective tags (bit 63 set; user tags are < 2^32).
const COLLECTIVE_BASE: u64 = 1 << 63;

impl Proc {
    /// Allocates the tag for the next collective. Epochs advance identically
    /// on every processor because collectives are called in SPMD order.
    fn collective_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_BASE | (self.epoch << 16);
        self.epoch += 1;
        self.note_collective_op();
        tag
    }

    /// Allocates a fresh tag from the runtime's reserved tag space, for
    /// libraries that layer structured communication on top of [`Proc`]
    /// (e.g. the load balancers). Must be called in SPMD order, like a
    /// collective; the low 16 bits of the returned tag are zero and free
    /// for sub-numbering rounds. Never collides with user tags (< 2^32) or
    /// with the runtime's own collectives.
    pub fn fresh_tag(&mut self) -> u64 {
        self.collective_tag()
    }

    /// Sends under a tag obtained from [`fresh_tag`](Proc::fresh_tag)
    /// (user-facing [`send`](Proc::send) rejects reserved tags).
    pub fn send_tagged<T: WireMsg>(&mut self, dst: usize, tag: u64, value: T) {
        self.isend(dst, tag, value);
    }

    /// Vector variant of [`send_tagged`](Proc::send_tagged).
    pub fn send_vec_tagged<T: WireMsg>(&mut self, dst: usize, tag: u64, data: Vec<T>) {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.isend_sized(dst, tag, bytes, data);
    }

    /// Receives under a tag obtained from [`fresh_tag`](Proc::fresh_tag).
    pub fn recv_tagged<T: WireMsg>(&mut self, src: usize, tag: u64) -> T {
        self.irecv(src, tag)
    }

    /// Vector variant of [`recv_tagged`](Proc::recv_tagged).
    pub fn recv_vec_tagged<T: WireMsg>(&mut self, src: usize, tag: u64) -> Vec<T> {
        self.irecv(src, tag)
    }

    /// Synchronizes all processors (dissemination barrier, `⌈log₂ p⌉` rounds).
    ///
    /// Also synchronizes virtual clocks up to the modeled cost of the barrier
    /// itself: afterwards every clock is at least the maximum pre-barrier
    /// clock.
    pub fn barrier(&mut self) {
        let tag = self.collective_tag();
        let p = self.nprocs();
        if p == 1 {
            return;
        }
        let rank = self.rank();
        let mut d = 1;
        while d < p {
            let to = (rank + d) % p;
            let from = (rank + p - d) % p;
            self.isend(to, tag, ());
            let () = self.irecv(from, tag);
            d <<= 1;
        }
    }

    /// Broadcast (paper primitive 1): the `root` supplies `Some(value)`,
    /// everyone else passes `None`; all processors return the value.
    /// Binomial tree, `O((τ + μm) log p)`.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn broadcast<T: Clone + WireMsg>(&mut self, root: usize, value: Option<T>) -> T {
        let p = self.nprocs();
        let rank = self.rank();
        assert!(root < p, "broadcast root {root} out of range (p = {p})");
        assert_eq!(
            rank == root,
            value.is_some(),
            "broadcast: exactly the root (rank {root}) must supply Some(value)"
        );
        let tag = self.collective_tag();
        let rel = (rank + p - root) % p;
        let mut val = value;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask != 0 {
                let src = (rel - mask + root) % p;
                val = Some(self.irecv(src, tag));
                break;
            }
            mask <<= 1;
        }
        // Forward down the binomial tree.
        mask >>= 1;
        let v = val.expect("broadcast value must exist by now");
        while mask > 0 {
            if rel + mask < p {
                let dst = (rel + mask + root) % p;
                self.isend(dst, tag, v.clone());
            }
            mask >>= 1;
        }
        v
    }

    /// Reduction to `root` (binomial tree): returns `Some(result)` on the
    /// root and `None` elsewhere. `op` must be associative and commutative
    /// (the combination order is the tree order, as in the paper).
    pub fn reduce<T, F>(&mut self, root: usize, value: T, op: F) -> Option<T>
    where
        T: WireMsg,
        F: Fn(T, T) -> T,
    {
        let p = self.nprocs();
        let rank = self.rank();
        assert!(root < p, "reduce root {root} out of range (p = {p})");
        let tag = self.collective_tag();
        let rel = (rank + p - root) % p;
        let mut acc = value;
        let mut mask = 1usize;
        while mask < p {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let other: T = self.irecv(src, tag);
                    acc = op(acc, other);
                }
            } else {
                let dst = (rel - mask + root) % p;
                self.isend(dst, tag, acc);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Combine (paper primitive 2): reduction whose result is stored on
    /// *every* processor. Implemented as reduce-to-0 followed by broadcast,
    /// `O((τ + μ) log p)` total.
    pub fn combine<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + WireMsg,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced)
    }

    /// Parallel Prefix (paper primitive 3): returns the *inclusive* prefix
    /// `x₀ ⊕ x₁ ⊕ … ⊕ x_rank`. Kogge–Stone recursive doubling,
    /// `O((τ + μ) log p)`.
    pub fn scan<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + WireMsg,
        F: Fn(T, T) -> T,
    {
        let p = self.nprocs();
        let rank = self.rank();
        let tag_base = self.collective_tag();
        let mut x = value;
        let mut d = 1usize;
        let mut round = 0u64;
        while d < p {
            let tag = tag_base | round;
            if rank + d < p {
                self.isend(rank + d, tag, x.clone());
            }
            if rank >= d {
                let t: T = self.irecv(rank - d, tag);
                x = op(t, x);
            }
            d <<= 1;
            round += 1;
        }
        x
    }

    /// Exclusive prefix sum of `u64` counts: returns the sum over ranks
    /// strictly below this one. A convenience wrapper over [`scan`](Proc::scan)
    /// used pervasively by the load balancers.
    pub fn exclusive_prefix_sum(&mut self, value: u64) -> u64 {
        self.scan(value, |a, b| a + b) - value
    }

    /// Gather (paper primitive 4): collects one value per processor on
    /// `root`, ordered by rank. Binomial tree, `O(τ log p + μ p m)`.
    /// Returns `Some` on the root, `None` elsewhere.
    pub fn gather<T: WireMsg>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        self.gather_sized(root, value, |_| std::mem::size_of::<T>() as u64)
    }

    /// Variable-size gather: collects each processor's vector on `root`,
    /// indexed by source rank. Same tree and cost shape as
    /// [`gather`](Proc::gather) with `m` the per-processor payload.
    pub fn gatherv<T: WireMsg>(&mut self, root: usize, data: Vec<T>) -> Option<Vec<Vec<T>>> {
        self.gather_sized(root, data, |v| (v.len() * std::mem::size_of::<T>()) as u64)
    }

    /// The binomial gather tree behind [`gather`](Proc::gather),
    /// [`gatherv`](Proc::gatherv) and [`all_gatherv_runs`](Proc::all_gatherv_runs):
    /// one item per processor, each forwarded message modeled as the sum of
    /// `bytes_of` over the items it carries.
    fn gather_sized<I: WireMsg>(
        &mut self,
        root: usize,
        item: I,
        bytes_of: impl Fn(&I) -> u64,
    ) -> Option<Vec<I>> {
        let p = self.nprocs();
        let rank = self.rank();
        assert!(root < p, "gather root {root} out of range (p = {p})");
        let tag = self.collective_tag();
        let rel = (rank + p - root) % p;
        let mut items: Vec<(usize, I)> = vec![(rank, item)];
        let mut mask = 1usize;
        while mask < p {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let recvd: Vec<(usize, I)> = self.irecv(src, tag);
                    items.extend(recvd);
                }
            } else {
                let dst = (rel - mask + root) % p;
                let bytes: u64 = items.iter().map(|(_, v)| bytes_of(v)).sum();
                self.isend_sized(dst, tag, bytes, items);
                return None;
            }
            mask <<= 1;
        }
        items.sort_unstable_by_key(|(origin, _)| *origin);
        Some(items.into_iter().map(|(_, v)| v).collect())
    }

    /// Gathers every processor's vector on `root` and concatenates them in
    /// rank order. The concatenation copy is charged to the root's clock.
    pub fn gather_flat<T: WireMsg>(&mut self, root: usize, data: Vec<T>) -> Option<Vec<T>> {
        let parts = self.gatherv(root, data)?;
        let total: usize = parts.iter().map(Vec::len).sum();
        self.charge_ops(total as u64);
        let mut out = Vec::with_capacity(total);
        for part in parts {
            out.extend(part);
        }
        Some(out)
    }

    /// Global Concatenate (paper primitive 5): like [`gather`](Proc::gather)
    /// but the result is stored on all processors. Gather + broadcast,
    /// `O(τ log p + μ p m)`.
    pub fn all_gather<T: Clone + WireMsg>(&mut self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }

    /// Variable-size Global Concatenate, indexed by source rank.
    pub fn all_gatherv<T: Clone + WireMsg>(&mut self, data: Vec<T>) -> Vec<Vec<T>> {
        let gathered = self.gatherv(0, data);
        self.broadcast(0, gathered)
    }

    /// Segmented Global Concatenate: every processor contributes one flat
    /// `values` vector cut into consecutive runs of `run_lens[j]` elements
    /// (so `run_lens` sums to `values.len()`), and all processors receive
    /// every contribution, indexed by source rank. One gather plus one
    /// broadcast, like [`all_gatherv`](Proc::all_gatherv); the gather is
    /// modeled at 4 bytes per run length plus `size_of::<T>()` per value.
    pub fn all_gatherv_runs<T: Clone + WireMsg>(
        &mut self,
        run_lens: Vec<u32>,
        values: Vec<T>,
    ) -> Vec<(Vec<u32>, Vec<T>)> {
        debug_assert_eq!(run_lens.iter().map(|&c| c as usize).sum::<usize>(), values.len());
        let gathered = self.gather_sized(0, (run_lens, values), |(lens, vals)| {
            (lens.len() * std::mem::size_of::<u32>() + vals.len() * std::mem::size_of::<T>()) as u64
        });
        self.broadcast(0, gathered)
    }

    /// Scatter: the root distributes one value per processor (the inverse
    /// of [`gather`](Proc::gather)). Binomial tree: the root hands each
    /// subtree its whole slice, halving at each level —
    /// `O(τ log p + μ p m)`.
    ///
    /// # Panics
    /// Panics unless exactly the root passes `Some(values)` with
    /// `values.len() == p`.
    pub fn scatter<T: WireMsg>(&mut self, root: usize, values: Option<Vec<T>>) -> T {
        let mut v = self.scatterv(root, values.map(|vs| vs.into_iter().map(|x| vec![x]).collect()));
        assert_eq!(v.len(), 1, "scatter delivers exactly one value per processor");
        v.pop().expect("length checked above")
    }

    /// Variable-size scatter: the root distributes `chunks[i]` to
    /// processor `i`. Same tree and cost shape as [`scatter`](Proc::scatter).
    ///
    /// # Panics
    /// Panics unless exactly the root passes `Some(chunks)` with
    /// `chunks.len() == p`.
    pub fn scatterv<T: WireMsg>(&mut self, root: usize, chunks: Option<Vec<Vec<T>>>) -> Vec<T> {
        let p = self.nprocs();
        let rank = self.rank();
        assert!(root < p, "scatterv root {root} out of range (p = {p})");
        assert_eq!(
            rank == root,
            chunks.is_some(),
            "scatterv: exactly the root (rank {root}) must supply Some(chunks)"
        );
        let tag = self.collective_tag();
        let elem_bytes = std::mem::size_of::<T>() as u64;
        let rel = (rank + p - root) % p;

        // My bundle holds the chunks for relative ranks [rel, rel + span).
        let mut bundle: Vec<(usize, Vec<T>)> = match chunks {
            Some(cs) => {
                assert_eq!(cs.len(), p, "scatterv needs exactly one chunk per processor");
                // Order by relative rank so splits are contiguous.
                let mut tagged: Vec<(usize, Vec<T>)> = cs.into_iter().enumerate().collect();
                tagged.sort_unstable_by_key(|(dst, _)| (dst + p - root) % p);
                tagged
            }
            None => {
                let mut mask = 1usize;
                loop {
                    debug_assert!(mask < p);
                    if rel & mask != 0 {
                        let src = (rel - mask + root) % p;
                        break self.irecv(src, tag);
                    }
                    mask <<= 1;
                }
            }
        };

        // Forward the upper halves of my bundle down the binomial tree.
        let mut mask = {
            // Highest bit below my received bit (root: highest bit < p).
            let mut m = 1usize;
            while m < p && (rel & m) == 0 {
                m <<= 1;
            }
            if rel == 0 {
                // root: start from the top of the tree
                let mut top = 1usize;
                while top < p {
                    top <<= 1;
                }
                top >> 1
            } else {
                m >> 1
            }
        };
        while mask > 0 {
            if rel + mask < p {
                let dst = (rel + mask + root) % p;
                // Chunks for relative ranks >= rel + mask go to that child.
                let split = bundle.partition_point(|(d, _)| (*d + p - root) % p < rel + mask);
                let sub: Vec<(usize, Vec<T>)> = bundle.split_off(split);
                let bytes: u64 = sub.iter().map(|(_, c)| c.len() as u64 * elem_bytes).sum();
                self.isend_sized(dst, tag, bytes, sub);
            }
            mask >>= 1;
        }

        debug_assert_eq!(bundle.len(), 1, "exactly my own chunk must remain");
        let (dst, chunk) = bundle.pop().expect("own chunk");
        assert_eq!(dst, rank, "scatterv routing failure");
        chunk
    }

    /// Transportation primitive (paper primitive 6): many-to-many
    /// personalized communication. `outgoing[j]` is this processor's message
    /// for processor `j`; the return value's entry `i` is the message
    /// received from processor `i`.
    ///
    /// Implemented with the staggered schedule (round `r` sends to
    /// `rank + r`, receives from `rank - r`), giving the `2 μ t` transfer
    /// bound of Ranka–Shankar–Alsabti for traffic bounded by `t` per
    /// processor (plus `τ (p−1)` start-ups).
    ///
    /// # Panics
    /// Panics if `outgoing.len() != p`.
    pub fn all_to_allv<T: WireMsg>(&mut self, mut outgoing: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let p = self.nprocs();
        let rank = self.rank();
        assert_eq!(
            outgoing.len(),
            p,
            "all_to_allv requires exactly one outgoing vector per processor"
        );
        let tag = self.collective_tag();
        let mut incoming: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        incoming[rank] = std::mem::take(&mut outgoing[rank]);
        for r in 1..p {
            let dst = (rank + r) % p;
            let src = (rank + p - r) % p;
            let payload = std::mem::take(&mut outgoing[dst]);
            self.isend_sized(dst, tag, (payload.len() * std::mem::size_of::<T>()) as u64, payload);
            incoming[src] = self.irecv(src, tag);
        }
        incoming
    }

    /// Broadcast from a dynamically determined owner: exactly one processor
    /// passes `Some(value)`; all processors return that value. This is how
    /// the randomized selection algorithms publish the pivot held by
    /// whichever processor owns the randomly chosen global index, at the
    /// same `O((τ + μ) log p)` cost as a rooted broadcast.
    ///
    /// # Panics
    /// Panics (on every processor) unless exactly one processor supplied a
    /// value.
    pub fn bcast_from_owner<T: Clone + WireMsg>(&mut self, value: Option<T>) -> T {
        let mine = u64::from(value.is_some());
        let (v, owners) = self.combine((value, mine), |(a, ca), (b, cb)| (a.or(b), ca + cb));
        assert_eq!(owners, 1, "bcast_from_owner requires exactly one owner, found {owners}");
        v.expect("owner count is 1, value must exist")
    }
}

#[cfg(test)]
mod tests {
    use crate::{Machine, MachineModel};

    const PS: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 13];

    #[test]
    fn broadcast_every_root_every_p() {
        for &p in &PS {
            for root in 0..p {
                let out = Machine::new(p)
                    .run(|proc| {
                        let v = if proc.rank() == root { Some(99usize + root) } else { None };
                        proc.broadcast(root, v)
                    })
                    .unwrap();
                assert_eq!(out, vec![99 + root; p], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn broadcast_vectors() {
        let out = Machine::new(6)
            .run(|proc| {
                let v = if proc.rank() == 2 { Some(vec![1u64, 2, 3]) } else { None };
                proc.broadcast(2, v)
            })
            .unwrap();
        for v in out {
            assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn combine_sums_and_maxes() {
        for &p in &PS {
            let sums = Machine::new(p)
                .run(|proc| proc.combine(proc.rank() as u64 + 1, |a, b| a + b))
                .unwrap();
            let expect = (p as u64) * (p as u64 + 1) / 2;
            assert_eq!(sums, vec![expect; p], "p={p}");

            let maxes =
                Machine::new(p).run(|proc| proc.combine(proc.rank(), |a, b| a.max(b))).unwrap();
            assert_eq!(maxes, vec![p - 1; p], "p={p}");
        }
    }

    #[test]
    fn scan_matches_oracle() {
        for &p in &PS {
            let out = Machine::new(p)
                .run(|proc| proc.scan(proc.rank() as u64 + 1, |a, b| a + b))
                .unwrap();
            let expect: Vec<u64> = (0..p as u64).map(|i| (i + 1) * (i + 2) / 2).collect();
            assert_eq!(out, expect, "p={p}");
        }
    }

    #[test]
    fn exclusive_prefix_sum_matches_oracle() {
        for &p in &PS {
            let out = Machine::new(p)
                .run(|proc| proc.exclusive_prefix_sum(10 + proc.rank() as u64))
                .unwrap();
            let mut acc = 0;
            for (i, got) in out.into_iter().enumerate() {
                assert_eq!(got, acc, "p={p} rank={i}");
                acc += 10 + i as u64;
            }
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        for &p in &PS {
            for root in [0, p / 2, p - 1] {
                let out =
                    Machine::new(p).run(|proc| proc.gather(root, proc.rank() as u32 * 2)).unwrap();
                for (rank, res) in out.into_iter().enumerate() {
                    if rank == root {
                        let v = res.expect("root receives the gather");
                        let expect: Vec<u32> = (0..p as u32).map(|i| i * 2).collect();
                        assert_eq!(v, expect, "p={p} root={root}");
                    } else {
                        assert!(res.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn gatherv_variable_sizes() {
        for &p in &PS {
            let out = Machine::new(p)
                .run(|proc| {
                    let data: Vec<u64> = (0..proc.rank() as u64).collect();
                    proc.gatherv(p - 1, data)
                })
                .unwrap();
            let v = out[p - 1].clone().expect("root result");
            assert_eq!(v.len(), p);
            for (i, part) in v.iter().enumerate() {
                assert_eq!(part.len(), i, "p={p} part={i}");
                assert_eq!(*part, (0..i as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn gather_flat_concatenates_in_rank_order() {
        let out = Machine::new(4)
            .run(|proc| {
                let base = proc.rank() as u64 * 10;
                proc.gather_flat(0, vec![base, base + 1])
            })
            .unwrap();
        assert_eq!(out[0].clone().unwrap(), vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn all_gather_everyone_sees_everything() {
        for &p in &PS {
            let out = Machine::new(p).run(|proc| proc.all_gather(proc.rank() as i64 - 1)).unwrap();
            let expect: Vec<i64> = (0..p as i64).map(|i| i - 1).collect();
            for v in out {
                assert_eq!(v, expect, "p={p}");
            }
        }
    }

    #[test]
    fn all_gatherv_round_trip() {
        let out = Machine::new(5)
            .run(|proc| {
                let data = vec![proc.rank() as u8; proc.rank() + 1];
                proc.all_gatherv(data)
            })
            .unwrap();
        for v in out {
            for (i, part) in v.iter().enumerate() {
                assert_eq!(*part, vec![i as u8; i + 1]);
            }
        }
    }

    #[test]
    fn all_gatherv_runs_round_trip_and_modeled_bytes() {
        // Rank r contributes r+1 runs holding 0, 1, …, r values of r.
        let out = Machine::new(3)
            .run(|proc| {
                let r = proc.rank();
                let lens: Vec<u32> = (0..=r as u32).collect();
                let values = vec![r as u64; lens.iter().sum::<u32>() as usize];
                (proc.all_gatherv_runs(lens, values), proc.comm_stats().bytes_sent)
            })
            .unwrap();
        for (all, _) in &out {
            for (r, (lens, values)) in all.iter().enumerate() {
                assert_eq!(*lens, (0..=r as u32).collect::<Vec<_>>());
                assert_eq!(*values, vec![r as u64; r * (r + 1) / 2]);
            }
        }
        // Leaves send their own payload up the gather tree: 4 bytes per run
        // length, 8 per value.
        assert_eq!(out[1].1, 2 * 4 + 8);
        assert_eq!(out[2].1, 3 * 4 + 3 * 8);
    }

    #[test]
    fn scatter_delivers_one_value_each() {
        for &p in &PS {
            for root in [0, p - 1] {
                let out = Machine::new(p)
                    .run(|proc| {
                        let vs = (proc.rank() == root)
                            .then(|| (0..proc.nprocs() as u64).map(|i| i * 3).collect());
                        proc.scatter(root, vs)
                    })
                    .unwrap();
                let expect: Vec<u64> = (0..p as u64).map(|i| i * 3).collect();
                assert_eq!(out, expect, "p={p} root={root}");
            }
        }
    }

    #[test]
    fn scatterv_variable_chunks() {
        for &p in &PS {
            let out = Machine::new(p)
                .run(|proc| {
                    let chunks = (proc.rank() == 0)
                        .then(|| (0..proc.nprocs()).map(|i| vec![i as u32; i + 1]).collect());
                    proc.scatterv(0, chunks)
                })
                .unwrap();
            for (i, chunk) in out.into_iter().enumerate() {
                assert_eq!(chunk, vec![i as u32; i + 1], "p={p}");
            }
        }
    }

    #[test]
    fn scatter_then_gather_round_trips() {
        let p = 7;
        let out = Machine::new(p)
            .run(|proc| {
                let vs = (proc.rank() == 2).then(|| (100..100 + proc.nprocs() as u64).collect());
                let mine = proc.scatter(2, vs);
                proc.gather(2, mine)
            })
            .unwrap();
        assert_eq!(out[2].clone().unwrap(), (100..107u64).collect::<Vec<_>>());
    }

    #[test]
    fn all_to_allv_transposes() {
        for &p in &PS {
            let out = Machine::new(p)
                .run(|proc| {
                    // Message for j encodes (from, to).
                    let outgoing: Vec<Vec<(usize, usize)>> =
                        (0..proc.nprocs()).map(|j| vec![(proc.rank(), j)]).collect();
                    proc.all_to_allv(outgoing)
                })
                .unwrap();
            for (rank, incoming) in out.into_iter().enumerate() {
                for (src, msgs) in incoming.into_iter().enumerate() {
                    assert_eq!(msgs, vec![(src, rank)], "p={p}");
                }
            }
        }
    }

    #[test]
    fn all_to_allv_with_empty_messages() {
        let out = Machine::new(4)
            .run(|proc| {
                // Only send to rank 0.
                let outgoing: Vec<Vec<u64>> = (0..4)
                    .map(|j| if j == 0 { vec![proc.rank() as u64] } else { vec![] })
                    .collect();
                proc.all_to_allv(outgoing)
            })
            .unwrap();
        assert_eq!(out[0], vec![vec![0], vec![1], vec![2], vec![3]]);
        for incoming in &out[1..] {
            assert!(incoming.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn bcast_from_owner_finds_the_owner() {
        for &p in &PS {
            for owner in 0..p {
                let out = Machine::new(p)
                    .run(|proc| {
                        let v = (proc.rank() == owner).then_some(1234u64 + owner as u64);
                        proc.bcast_from_owner(v)
                    })
                    .unwrap();
                assert_eq!(out, vec![1234 + owner as u64; p]);
            }
        }
    }

    #[test]
    fn bcast_from_owner_rejects_two_owners() {
        let err = Machine::new(3)
            .run(|proc| {
                let v = (proc.rank() <= 1).then_some(1u8);
                proc.bcast_from_owner(v)
            })
            .unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("exactly one owner"), "got: {msg}");
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        // One processor races ahead; after the barrier everyone's clock is
        // at least its pre-barrier value.
        let model = MachineModel::new(1.0, 0.0, 1.0);
        let out = Machine::with_model(4, model)
            .run(|proc| {
                if proc.rank() == 2 {
                    proc.charge_ops(1000); // 1000 seconds of local work
                }
                proc.barrier();
                proc.now()
            })
            .unwrap();
        for t in out {
            assert!(t >= 1000.0, "clock after barrier: {t}");
        }
    }

    #[test]
    fn broadcast_cost_is_logarithmic() {
        // tau = 1, mu = 0: binomial broadcast on p=8 must finish within
        // depth log2(8) = 3 sends of the root's serialization, i.e. every
        // clock <= 3 + 2 = small, certainly < p-1 (the flat-tree cost).
        let model = MachineModel::new(1.0, 0.0, 0.0);
        let out = Machine::with_model(8, model)
            .run(|proc| {
                let v = (proc.rank() == 0).then_some(7u8);
                proc.broadcast(0, v);
                proc.now()
            })
            .unwrap();
        let max = out.iter().cloned().fold(0.0, f64::max);
        assert!(max <= 3.0 + f64::EPSILON, "binomial broadcast too slow: {max}");
    }

    #[test]
    fn collectives_back_to_back_do_not_collide() {
        // Two identical collectives in a row exercise epoch-scoped tags.
        let out = Machine::new(4)
            .run(|proc| {
                let a = proc.combine(1u64, |a, b| a + b);
                let b = proc.combine(10u64, |a, b| a + b);
                (a, b)
            })
            .unwrap();
        assert_eq!(out, vec![(4, 40); 4]);
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let model = MachineModel::cm5();
        let run = || {
            Machine::with_model(8, model)
                .run(|proc| {
                    let s = proc.combine(proc.rank() as u64, |a, b| a + b);
                    let g = proc.all_gather(s + proc.rank() as u64);
                    proc.charge_ops(g.len() as u64 * 3);
                    proc.barrier();
                    proc.now()
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual clocks must be bit-reproducible");
    }
}
