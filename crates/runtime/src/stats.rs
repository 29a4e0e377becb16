//! Per-processor communication counters and phase timers.

use crate::wiremsg::{WireMsg, WireMsgError, WireReader};

/// Counters for messages and modeled bytes moved by one virtual processor.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommStats {
    /// Number of point-to-point messages sent (collectives included).
    pub msgs_sent: u64,
    /// Modeled payload bytes sent.
    pub bytes_sent: u64,
    /// Number of messages received.
    pub msgs_recv: u64,
    /// Modeled payload bytes received.
    pub bytes_recv: u64,
    /// Number of collective operations this processor has started (every
    /// barrier, broadcast, reduce/combine, scan, gather/scatter variant,
    /// all-to-all, and every `fresh_tag` draw counts once). Identical on
    /// every processor by SPMD discipline, which makes it the natural unit
    /// for "collective rounds" when comparing batched against per-query
    /// execution.
    pub collective_ops: u64,
}

/// The five counters in declaration order, each a `u64`.
impl WireMsg for CommStats {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        for v in
            [self.msgs_sent, self.bytes_sent, self.msgs_recv, self.bytes_recv, self.collective_ops]
        {
            v.wire_encode(out);
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let mut next = || u64::wire_decode(r);
        Ok(CommStats {
            msgs_sent: next()?,
            bytes_sent: next()?,
            msgs_recv: next()?,
            bytes_recv: next()?,
            collective_ops: next()?,
        })
    }
}

impl CommStats {
    /// Component-wise difference `self - earlier`; useful for measuring a
    /// single algorithm phase: snapshot before, subtract after.
    ///
    /// A mismatched pair (an `earlier` snapshot that is actually *later*)
    /// is a caller bug, flagged by a `debug_assert`; release builds
    /// saturate to zero instead of underflow-panicking, so telemetry paths
    /// degrade to a zeroed delta rather than taking the process down.
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        debug_assert!(
            self.msgs_sent >= earlier.msgs_sent
                && self.bytes_sent >= earlier.bytes_sent
                && self.msgs_recv >= earlier.msgs_recv
                && self.bytes_recv >= earlier.bytes_recv
                && self.collective_ops >= earlier.collective_ops,
            "CommStats::since with a snapshot pair out of order: {self:?} since {earlier:?}"
        );
        CommStats {
            msgs_sent: self.msgs_sent.saturating_sub(earlier.msgs_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            msgs_recv: self.msgs_recv.saturating_sub(earlier.msgs_recv),
            bytes_recv: self.bytes_recv.saturating_sub(earlier.bytes_recv),
            collective_ops: self.collective_ops.saturating_sub(earlier.collective_ops),
        }
    }

    /// Component-wise sum, for aggregating across processors.
    pub fn merged(&self, other: &CommStats) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            collective_ops: self.collective_ops + other.collective_ops,
        }
    }
}

/// Accumulates virtual time per named phase.
///
/// Phases may nest (e.g. `"sort"` inside the selection loop); the accumulated
/// time is *inclusive*. Begin/end pairs must be properly bracketed — the
/// timer panics on mismatched labels, which turns phase-accounting bugs in
/// the algorithms into immediate test failures.
#[derive(Default, Debug, Clone)]
pub struct PhaseTimer {
    stack: Vec<(&'static str, f64)>,
    acc: Vec<(&'static str, f64)>,
}

impl PhaseTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the start of `label` at virtual time `now`.
    pub fn begin(&mut self, label: &'static str, now: f64) {
        self.stack.push((label, now));
    }

    /// Marks the end of `label` at virtual time `now`, accumulating the
    /// elapsed virtual time.
    ///
    /// # Panics
    /// Panics if `label` does not match the innermost open phase.
    pub fn end(&mut self, label: &'static str, now: f64) {
        let (open, start) = self
            .stack
            .pop()
            .unwrap_or_else(|| panic!("PhaseTimer::end({label:?}) with no open phase"));
        assert_eq!(open, label, "PhaseTimer::end({label:?}) does not match open phase {open:?}");
        let elapsed = now - start;
        debug_assert!(elapsed >= 0.0, "virtual clock ran backwards in phase {label}");
        match self.acc.iter_mut().find(|(l, _)| *l == label) {
            Some((_, t)) => *t += elapsed,
            None => self.acc.push((label, elapsed)),
        }
    }

    /// Total accumulated virtual time for `label` (0.0 if never recorded).
    pub fn get(&self, label: &str) -> f64 {
        self.acc.iter().find(|(l, _)| *l == label).map(|(_, t)| *t).unwrap_or(0.0)
    }

    /// All recorded `(label, seconds)` pairs in first-seen order.
    pub fn all(&self) -> &[(&'static str, f64)] {
        &self.acc
    }

    /// True if every `begin` has been matched by an `end`.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_and_merged() {
        let a = CommStats {
            msgs_sent: 5,
            bytes_sent: 100,
            msgs_recv: 3,
            bytes_recv: 60,
            collective_ops: 4,
        };
        let b = CommStats {
            msgs_sent: 2,
            bytes_sent: 40,
            msgs_recv: 1,
            bytes_recv: 20,
            collective_ops: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.msgs_sent, 3);
        assert_eq!(d.bytes_sent, 60);
        assert_eq!(d.msgs_recv, 2);
        assert_eq!(d.bytes_recv, 40);
        assert_eq!(d.collective_ops, 3);
        let m = d.merged(&b);
        assert_eq!(m, a);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "snapshot pair out of order"))]
    fn since_saturates_on_mismatched_snapshots_in_release() {
        // A swapped snapshot pair must not underflow-wrap in release
        // telemetry paths; debug builds flag the caller bug loudly.
        let earlier = CommStats { msgs_sent: 1, ..CommStats::default() };
        let later = CommStats { msgs_sent: 5, bytes_sent: 10, ..CommStats::default() };
        let d = earlier.since(&later);
        assert_eq!(d, CommStats::default());
    }

    #[test]
    fn phases_accumulate() {
        let mut t = PhaseTimer::new();
        t.begin("lb", 1.0);
        t.end("lb", 3.0);
        t.begin("lb", 10.0);
        t.end("lb", 14.0);
        assert_eq!(t.get("lb"), 6.0);
        assert_eq!(t.get("other"), 0.0);
        assert!(t.balanced());
    }

    #[test]
    fn phases_nest_inclusively() {
        let mut t = PhaseTimer::new();
        t.begin("outer", 0.0);
        t.begin("inner", 1.0);
        t.end("inner", 2.0);
        t.end("outer", 5.0);
        assert_eq!(t.get("outer"), 5.0);
        assert_eq!(t.get("inner"), 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match open phase")]
    fn mismatched_end_panics() {
        let mut t = PhaseTimer::new();
        t.begin("a", 0.0);
        t.end("b", 1.0);
    }

    #[test]
    #[should_panic(expected = "no open phase")]
    fn end_without_begin_panics() {
        let mut t = PhaseTimer::new();
        t.end("a", 1.0);
    }
}
