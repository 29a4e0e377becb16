//! Sketches: compact summaries of a multiset.
//!
//! One family lives here: [`EpsSketch`] (`sketch/eps.rs`), a
//! **deterministic** mergeable ε-sketch (a Munro–Paterson-style compactor
//! hierarchy, one for what was offered and one for what was removed) that
//! answers rank → value and value → rank queries over the surviving
//! multiset with a *provable* absolute rank-error bound it reports itself
//! ([`EpsSketch::rank_error_bound`] / [`EpsSketch::count_error_bound`]).
//! The engine keeps one host-global `EpsSketch` fed at ingest and re-merged
//! from the shards after a delete, and per-shard sketches that note each
//! delete's removals, seed index splitters and ride migration snapshots;
//! `Accuracy::WithinRank` contracts the bound can honor are
//! served host-side at **zero collectives**. The metrics registry feeds
//! its latency tracks to the same sketch, so telemetry percentiles carry
//! the same kind of stated bound. There is no RNG anywhere in this crate.

mod eps;

pub use eps::EpsSketch;
