//! The metrics registry: counters, gauges, fixed-bucket histograms, and
//! latency tracks whose percentiles are served by the engine's own quantile
//! machinery.
//!
//! The registry is deliberately boring — `BTreeMap`s behind one `Mutex`,
//! `&'static str` names — because it sits on the engine's batch path and the
//! frontend's delivery path. The one interesting piece is dogfooding:
//! latency tracks feed an [`EpsSketch`] and percentiles come out of
//! [`quantile_rank`] + [`EpsSketch::query_rank`] — the very code the engine
//! uses to answer its callers' tolerant quantile queries now answers queries
//! about the engine itself, with the same deterministic guarantee: exact
//! while a track holds fewer than [`LATENCY_CAPACITY`] observations, within
//! [`EpsSketch::rank_error_bound`] ranks after.

use crate::query::quantile_rank;
use crate::sketch::EpsSketch;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Upper bucket bounds are `2^i` for `i < HISTOGRAM_BUCKETS`, plus an
/// implicit `+inf` overflow bucket — fixed so snapshots from different runs
/// are always comparable.
const HISTOGRAM_BUCKETS: usize = 24;

/// Compactor capacity of one latency track's sketch: lossless below it,
/// and a guaranteed rank error of a few percent of `n` at `O(k·log(n/k))`
/// memory above it.
const LATENCY_CAPACITY: usize = 1024;

#[derive(Clone, Debug, Default)]
struct Histogram {
    /// `buckets[i]` counts observations `v ≤ 2^i`; the last slot overflows.
    buckets: [u64; HISTOGRAM_BUCKETS + 1],
    count: u64,
    sum: u64,
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        let slot = (64 - u64::leading_zeros(v.max(1)) as usize - 1)
            + usize::from(!v.is_power_of_two() && v > 1);
        self.buckets[slot.min(HISTOGRAM_BUCKETS)] += 1;
        self.count += 1;
        self.sum += v;
    }
}

/// The engine's own quantile machinery, turned on itself: a latency
/// percentile is the track sketch's element for the quantile's target rank.
fn percentile(track: &mut EpsSketch<u64>, q: f64) -> u64 {
    match track.population() {
        0 => 0,
        n => track.query_rank(quantile_rank(q, n)),
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    latencies: BTreeMap<&'static str, EpsSketch<u64>>,
}

/// A process-shared metrics registry.
///
/// Cloned handles (via `Arc`) are held by the engine and the frontend's
/// batcher thread; every operation takes one short mutex section. Names must
/// be `&'static str` — metric names are code, not data.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, n: u64) {
        *self.inner.lock().expect("metrics lock").counters.entry(name).or_insert(0) += n;
    }

    /// Sets the named gauge to its latest value.
    pub fn gauge_set(&self, name: &'static str, v: f64) {
        self.inner.lock().expect("metrics lock").gauges.insert(name, v);
    }

    /// Records one observation into the named power-of-two-bucket histogram.
    pub fn histogram_observe(&self, name: &'static str, v: u64) {
        self.inner.lock().expect("metrics lock").histograms.entry(name).or_default().observe(v);
    }

    /// Records one latency observation (nanoseconds) into the named track.
    pub fn latency_observe(&self, name: &'static str, nanos: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner
            .latencies
            .entry(name)
            .or_insert_with(|| EpsSketch::new(LATENCY_CAPACITY))
            .offer(nanos);
    }

    /// A point-in-time copy of every metric, with latency percentiles
    /// computed by the engine's own sketch/quantile code.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut inner = self.inner.lock().expect("metrics lock");
        let latencies = inner
            .latencies
            .iter_mut()
            .map(|(&name, track)| LatencySummary {
                name,
                count: track.population(),
                p50: percentile(track, 0.50),
                p95: percentile(track, 0.95),
                p99: percentile(track, 0.99),
            })
            .collect();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            gauges: inner.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&name, h)| HistogramSnapshot {
                    name,
                    count: h.count,
                    sum: h.sum,
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| {
                            let le = if i < HISTOGRAM_BUCKETS { 1u64 << i } else { u64::MAX };
                            (le, c)
                        })
                        .collect(),
                })
                .collect(),
            latencies,
        }
    }
}

/// One histogram in a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty `(upper bound, count)` buckets; `u64::MAX` is the overflow
    /// bucket.
    pub buckets: Vec<(u64, u64)>,
}

/// One latency track in a [`MetricsSnapshot`]; all values in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Track name.
    pub name: &'static str,
    /// Total observations (the track's full population, not just the
    /// items its sketch retains).
    pub count: u64,
    /// Estimated median latency.
    pub p50: u64,
    /// Estimated 95th-percentile latency.
    pub p95: u64,
    /// Estimated 99th-percentile latency.
    pub p99: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`], exportable as aligned
/// text or JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, name-sorted.
    pub counters: Vec<(&'static str, u64)>,
    /// Last-value gauges, name-sorted.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Latency tracks, name-sorted.
    pub latencies: Vec<LatencySummary>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as line-oriented text (one metric per line,
    /// `prometheus`-flavored but offline-friendly).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for h in &self.histograms {
            out.push_str(&format!("histogram {} count={} sum={}", h.name, h.count, h.sum));
            for (le, c) in &h.buckets {
                if *le == u64::MAX {
                    out.push_str(&format!(" le=+inf:{c}"));
                } else {
                    out.push_str(&format!(" le={le}:{c}"));
                }
            }
            out.push('\n');
        }
        for l in &self.latencies {
            out.push_str(&format!(
                "latency {} count={} p50={}ns p95={}ns p99={}ns\n",
                l.name, l.count, l.p50, l.p95, l.p99
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON object (hand-rolled: the workspace is
    /// offline and carries no serializer dependency).
    pub fn to_json(&self) -> String {
        fn push_kv_list<V: std::fmt::Display>(out: &mut String, items: &[(&str, V)]) {
            out.push('{');
            for (i, (name, v)) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{v}"));
            }
            out.push('}');
        }
        let mut out = String::from("{\"counters\":");
        push_kv_list(&mut out, &self.counters);
        out.push_str(",\"gauges\":");
        push_kv_list(&mut out, &self.gauges);
        out.push_str(",\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                h.name, h.count, h.sum
            ));
            for (j, (le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{le},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"latencies\":{");
        for (i, l) in self.latencies.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                l.name, l.count, l.p50, l.p95, l.p99
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_add("requests_total", 3);
        m.counter_add("requests_total", 2);
        m.gauge_set("queue_depth", 7.0);
        m.gauge_set("queue_depth", 4.0);
        for v in [1u64, 2, 3, 900] {
            m.histogram_observe("batch_occupancy", v);
        }
        let s = m.snapshot();
        assert_eq!(s.counters, vec![("requests_total", 5)]);
        assert_eq!(s.gauges, vec![("queue_depth", 4.0)]);
        let h = &s.histograms[0];
        assert_eq!((h.count, h.sum), (4, 906));
        // Buckets are `v ≤ 2^i`: 1→le=1, 2→le=2, 3→le=4, 900→le=1024.
        assert_eq!(h.buckets, vec![(1, 1), (2, 1), (4, 1), (1024, 1)]);
    }

    #[test]
    fn latency_percentiles_come_from_the_engines_own_quantile_code() {
        let m = MetricsRegistry::new();
        // 1..=1000 ns, below the sketch capacity: the sketch is lossless, so
        // the dogfooded percentile must be the *exact* order statistic the
        // engine's quantile_rank targets.
        for v in 1..=1000u64 {
            m.latency_observe("request_wall", v);
        }
        let l = m.snapshot().latencies[0];
        assert_eq!(l.count, 1000);
        assert_eq!(l.p50, quantile_rank(0.50, 1000) + 1);
        assert_eq!(l.p95, quantile_rank(0.95, 1000) + 1);
        assert_eq!(l.p99, quantile_rank(0.99, 1000) + 1);
    }

    #[test]
    fn latency_percentiles_stay_within_the_sketch_bound_above_capacity() {
        let m = MetricsRegistry::new();
        // Observation v has rank v - 1, so a percentile's rank error is
        // readable straight off the reported value.
        for v in 1..=100_000u64 {
            m.latency_observe("request_wall", v);
        }
        let l = m.snapshot().latencies[0];
        assert_eq!(l.count, 100_000);
        // The track's sketch saw the same stream, so its self-reported
        // guarantee is the bar — and that guarantee is itself tight.
        let bound = EpsSketch::from_data(LATENCY_CAPACITY, &(1..=100_000u64).collect::<Vec<_>>())
            .rank_error_bound();
        assert!(bound < 3_000, "a 1024-wide sketch of 10^5 items guarantees <3%, got {bound}");
        for (p, q) in [(l.p50, 0.50), (l.p95, 0.95), (l.p99, 0.99)] {
            let target = quantile_rank(q, 100_000);
            assert!((p - 1).abs_diff(target) <= bound, "p{q}: {p} is >{bound} ranks off {target}");
        }
        assert!(l.p50 < l.p95 && l.p95 < l.p99);
    }

    #[test]
    fn exporters_render_every_section() {
        let m = MetricsRegistry::new();
        m.counter_add("served_histogram", 9);
        m.gauge_set("delta_occupancy", 0.25);
        m.histogram_observe("batch_occupancy", 8);
        m.latency_observe("batch_wall", 1500);
        let s = m.snapshot();
        let text = s.to_text();
        assert!(text.contains("counter served_histogram 9"), "{text}");
        assert!(text.contains("gauge delta_occupancy 0.25"), "{text}");
        assert!(text.contains("histogram batch_occupancy count=1 sum=8 le=8:1"), "{text}");
        assert!(text.contains("latency batch_wall count=1 p50=1500ns"), "{text}");
        let json = s.to_json();
        assert!(json.contains("\"served_histogram\":9"), "{json}");
        assert!(json.contains("\"batch_wall\":{\"count\":1,\"p50\":1500"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
