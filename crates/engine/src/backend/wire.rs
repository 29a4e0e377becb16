//! The byte codec of the message-passing backend's control plane.
//!
//! Every command the message-passing host sends to a shard worker, and
//! every reply a worker sends back, crosses the link as one serialized
//! frame built here — no shared pointers, no in-process shortcuts. The
//! frames are plain little-endian bytes (element values ride on the
//! [`Key`] wire encoding), so the exact same bytes cross an in-process
//! channel or a socket.
//!
//! Decoding is **fallible**: a truncated or corrupt frame — e.g. a
//! half-written reply from a dying worker process — surfaces as a typed
//! [`WireMsgError`] that callers convert into
//! [`RunError::WireProtocol`](cgselect_runtime::RunError) and ultimately
//! [`BackendError::Runtime`](super::BackendError), never as an abort of the
//! process that happened to read the frame.

use cgselect_runtime::{CommStats, Key, WireMsgError};
use cgselect_seqsel::SepBound;

use crate::index::{BucketStats, Group};
use crate::obs::{Phase, PhaseSpan, TraceContext, TraceId};
use crate::query::RankSet;
use crate::sketch::EpsSketch;

/// Builds one wire frame.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(tag: u8) -> Self {
        Writer { buf: vec![tag] }
    }

    pub(crate) fn into_frame(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Splices pre-encoded wire bytes (e.g. an exported shard snapshot
    /// being forwarded into an import command) into the frame verbatim.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn key<T: Key>(&mut self, v: T) {
        v.wire_write(&mut self.buf);
    }

    pub(crate) fn keys<T: Key>(&mut self, vs: &[T]) {
        self.usize(vs.len());
        self.buf.reserve(vs.len() * T::WIRE_BYTES);
        for &v in vs {
            v.wire_write(&mut self.buf);
        }
    }

    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    pub(crate) fn opt_key<T: Key>(&mut self, v: Option<T>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.key(x);
            }
            None => self.bool(false),
        }
    }

    pub(crate) fn bucket_stats<T: Key>(&mut self, stats: &BucketStats<T>) {
        self.usize(stats.len());
        for &(count, mm) in stats {
            self.u64(count);
            match mm {
                Some((lo, hi)) => {
                    self.bool(true);
                    self.key(lo);
                    self.key(hi);
                }
                None => self.bool(false),
            }
        }
    }

    pub(crate) fn group(&mut self, g: &Group) {
        self.usize(g.lo);
        self.usize(g.hi);
        self.u64(g.n);
        self.u64s(&g.ranks);
        self.usize(g.out.len());
        for &slot in &g.out {
            self.usize(slot);
        }
    }

    pub(crate) fn comm_stats(&mut self, s: &CommStats) {
        self.u64(s.msgs_sent);
        self.u64(s.bytes_sent);
        self.u64(s.msgs_recv);
        self.u64(s.bytes_recv);
        self.u64(s.collective_ops);
    }

    /// Separator bounds ride as `(key, inclusive)` pairs — the same shape
    /// as value probes, kept distinct so the two codecs can diverge.
    pub(crate) fn sep_bounds<T: Key>(&mut self, bounds: &[SepBound<T>]) {
        self.usize(bounds.len());
        for b in bounds {
            self.key(b.value);
            self.bool(b.inclusive);
        }
    }

    /// Value probes ride as `(key, inclusive)` pairs.
    pub(crate) fn probes<T: Key>(&mut self, probes: &[(T, bool)]) {
        self.usize(probes.len());
        for &(v, inclusive) in probes {
            self.key(v);
            self.bool(inclusive);
        }
    }

    /// A rank set rides as its runs — the whole point of the compact
    /// representation is that `TopK(k)` costs one `(0, k)` pair on the
    /// wire, not `k` ranks.
    pub(crate) fn rank_set(&mut self, set: &RankSet) {
        self.usize(set.num_runs());
        for (start, len) in set.runs() {
            self.u64(start);
            self.u64(len);
        }
    }

    /// The batch trace context rides in execute command frames — this is
    /// how request-scoped observability crosses the host/worker boundary.
    pub(crate) fn trace_context(&mut self, ctx: &Option<TraceContext>) {
        match ctx {
            Some(c) => {
                self.bool(true);
                self.u64(c.batch);
                self.u64(c.root.0);
            }
            None => self.bool(false),
        }
    }

    /// An ε-sketch rides as its own length-prefixed byte encoding
    /// ([`EpsSketch::to_bytes`]) so snapshot and export frames share one
    /// canonical codec with the host-side persistence path.
    pub(crate) fn eps_sketch<T: Key>(&mut self, s: &EpsSketch<T>) {
        let bytes = s.to_bytes();
        self.usize(bytes.len());
        self.raw(&bytes);
    }

    /// Per-phase span measurements ride back in execute reply frames.
    pub(crate) fn phase_spans(&mut self, spans: &[PhaseSpan]) {
        self.usize(spans.len());
        for s in spans {
            self.buf.push(s.phase.as_u8());
            self.f64(s.time);
            self.comm_stats(&s.comm);
        }
    }
}

/// Result of decoding one field from a wire frame.
pub(crate) type WireResult<T> = Result<T, WireMsgError>;

/// Consumes one wire frame.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading after the frame's tag byte (which the caller has
    /// already dispatched on).
    pub(crate) fn new(frame: &'a [u8]) -> Self {
        Reader { buf: frame, pos: 1 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| WireMsgError::new("wire frame length overflow"))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| {
            WireMsgError::new(format!(
                "wire frame truncated: wanted {n} bytes at offset {}, frame holds {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Strict like the runtime's `WireMsg for bool`: a flag byte other
    /// than 0/1 is a corrupt frame, not `true`.
    pub(crate) fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireMsgError::new(format!("invalid bool byte {b:#x} on the wire"))),
        }
    }

    pub(crate) fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes taken")))
    }

    pub(crate) fn usize(&mut self) -> WireResult<usize> {
        Ok(self.u64()? as usize)
    }

    pub(crate) fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn str(&mut self) -> WireResult<String> {
        let len = self.usize()?;
        Ok(String::from_utf8_lossy(self.take(len)?).into_owned())
    }

    pub(crate) fn key<T: Key>(&mut self) -> WireResult<T> {
        Ok(T::wire_read(self.take(T::WIRE_BYTES)?))
    }

    pub(crate) fn keys<T: Key>(&mut self) -> WireResult<Vec<T>> {
        let len = self.usize()?;
        (0..len).map(|_| self.key()).collect()
    }

    pub(crate) fn u64s(&mut self) -> WireResult<Vec<u64>> {
        let len = self.usize()?;
        (0..len).map(|_| self.u64()).collect()
    }

    pub(crate) fn opt_key<T: Key>(&mut self) -> WireResult<Option<T>> {
        if self.bool()? {
            Ok(Some(self.key()?))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn bucket_stats<T: Key>(&mut self) -> WireResult<BucketStats<T>> {
        let len = self.usize()?;
        (0..len)
            .map(|_| {
                let count = self.u64()?;
                let mm = if self.bool()? {
                    let lo = self.key()?;
                    let hi = self.key()?;
                    Some((lo, hi))
                } else {
                    None
                };
                Ok((count, mm))
            })
            .collect()
    }

    pub(crate) fn group(&mut self) -> WireResult<Group> {
        let lo = self.usize()?;
        let hi = self.usize()?;
        let n = self.u64()?;
        let ranks = self.u64s()?;
        let out_len = self.usize()?;
        let out = (0..out_len).map(|_| self.usize()).collect::<WireResult<_>>()?;
        Ok(Group { lo, hi, n, ranks, out })
    }

    pub(crate) fn comm_stats(&mut self) -> WireResult<CommStats> {
        Ok(CommStats {
            msgs_sent: self.u64()?,
            bytes_sent: self.u64()?,
            msgs_recv: self.u64()?,
            bytes_recv: self.u64()?,
            collective_ops: self.u64()?,
        })
    }

    pub(crate) fn sep_bounds<T: Key>(&mut self) -> WireResult<Vec<SepBound<T>>> {
        let len = self.usize()?;
        (0..len)
            .map(|_| {
                let value = self.key()?;
                let inclusive = self.bool()?;
                Ok(SepBound { value, inclusive })
            })
            .collect()
    }

    pub(crate) fn probes<T: Key>(&mut self) -> WireResult<Vec<(T, bool)>> {
        let len = self.usize()?;
        (0..len)
            .map(|_| {
                let v = self.key()?;
                let inclusive = self.bool()?;
                Ok((v, inclusive))
            })
            .collect()
    }

    pub(crate) fn rank_set(&mut self) -> WireResult<RankSet> {
        let len = self.usize()?;
        let runs = (0..len)
            .map(|_| {
                let start = self.u64()?;
                let l = self.u64()?;
                Ok((start, l))
            })
            .collect::<WireResult<_>>()?;
        Ok(RankSet::from_runs(runs))
    }

    pub(crate) fn trace_context(&mut self) -> WireResult<Option<TraceContext>> {
        if self.bool()? {
            let batch = self.u64()?;
            let root = TraceId(self.u64()?);
            Ok(Some(TraceContext { batch, root }))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn eps_sketch<T: Key>(&mut self) -> WireResult<EpsSketch<T>> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        EpsSketch::from_bytes(bytes)
            .ok_or_else(|| WireMsgError::new("malformed ε-sketch payload on the wire"))
    }

    pub(crate) fn phase_spans(&mut self) -> WireResult<Vec<PhaseSpan>> {
        let len = self.usize()?;
        (0..len)
            .map(|_| {
                let byte = self.u8()?;
                let phase = Phase::from_u8(byte).ok_or_else(|| {
                    WireMsgError::new(format!("unknown phase byte {byte:#x} on the wire"))
                })?;
                let time = self.f64()?;
                let comm = self.comm_stats()?;
                Ok(PhaseSpan { phase, time, comm })
            })
            .collect()
    }

    /// Checks the frame was consumed exactly — a cheap wire-format check
    /// applied to every decoded command and reply.
    pub(crate) fn finish(self) -> WireResult<()> {
        if self.pos != self.buf.len() {
            return Err(WireMsgError::new(format!(
                "wire frame has {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::OrdF64;

    #[test]
    fn scalar_round_trips() {
        let mut w = Writer::new(7);
        w.bool(true);
        w.u64(u64::MAX - 5);
        w.usize(12345);
        w.f64(-0.125);
        w.str("hello wire");
        w.key(OrdF64(2.5));
        w.opt_key::<u64>(None);
        w.opt_key(Some(99u64));
        let frame = w.into_frame();
        assert_eq!(frame[0], 7);
        let mut r = Reader::new(&frame);
        assert!(r.bool().unwrap());
        assert_eq!(r.u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.str().unwrap(), "hello wire");
        assert_eq!(r.key::<OrdF64>().unwrap(), OrdF64(2.5));
        assert_eq!(r.opt_key::<u64>().unwrap(), None);
        assert_eq!(r.opt_key::<u64>().unwrap(), Some(99));
        r.finish().unwrap();

        // A bit-flipped flag byte is rejected, not read as `true`.
        let mut corrupt = frame.clone();
        corrupt[1] = 0x02;
        assert!(Reader::new(&corrupt).bool().is_err());
    }

    #[test]
    fn aggregate_round_trips() {
        let stats: BucketStats<u64> = vec![(4, Some((1, 9))), (0, None), (2, Some((5, 5)))];
        let group = Group { lo: 2, hi: 5, n: 1000, ranks: vec![3, 700], out: vec![1, 0] };
        let comm = CommStats {
            msgs_sent: 1,
            bytes_sent: 2,
            msgs_recv: 3,
            bytes_recv: 4,
            collective_ops: 5,
        };
        let probes: Vec<(u64, bool)> = vec![(5, false), (5, true), (900, false)];
        let ranks = RankSet::from_runs(vec![(0, 100_000), (500_000, 1), (700_000, 3)]);
        let mut w = Writer::new(0);
        w.keys(&[10u64, 20, 30]);
        w.u64s(&[7, 8]);
        w.bucket_stats(&stats);
        w.group(&group);
        w.comm_stats(&comm);
        w.probes(&probes);
        w.rank_set(&ranks);
        let frame = w.into_frame();
        let mut r = Reader::new(&frame);
        assert_eq!(r.keys::<u64>().unwrap(), vec![10, 20, 30]);
        assert_eq!(r.u64s().unwrap(), vec![7, 8]);
        assert_eq!(r.bucket_stats::<u64>().unwrap(), stats);
        assert_eq!(r.group().unwrap(), group);
        assert_eq!(r.comm_stats().unwrap(), comm);
        assert_eq!(r.probes::<u64>().unwrap(), probes);
        assert_eq!(r.rank_set().unwrap(), ranks);
        r.finish().unwrap();
    }

    #[test]
    fn trace_context_round_trips() {
        let ctx = Some(TraceContext { batch: 42, root: TraceId(u64::MAX - 1) });
        let mut w = Writer::new(0);
        w.trace_context(&ctx);
        w.trace_context(&None);
        let frame = w.into_frame();
        let mut r = Reader::new(&frame);
        assert_eq!(r.trace_context().unwrap(), ctx);
        assert_eq!(r.trace_context().unwrap(), None);
        r.finish().unwrap();
        // The disabled encoding is one byte: observability off must not
        // inflate command frames.
        let mut w = Writer::new(0);
        w.trace_context(&None);
        assert_eq!(w.into_frame().len(), 2, "tag byte + disabled flag");
    }

    #[test]
    fn phase_spans_round_trip() {
        let spans = vec![
            PhaseSpan { phase: Phase::Probes, time: 1.5e-6, comm: CommStats::default() },
            PhaseSpan {
                phase: Phase::Exact,
                time: 0.25,
                comm: CommStats {
                    msgs_sent: 9,
                    bytes_sent: 144,
                    msgs_recv: 9,
                    bytes_recv: 144,
                    collective_ops: 7,
                },
            },
            PhaseSpan { phase: Phase::Sketch, time: 0.0, comm: CommStats::default() },
        ];
        let mut w = Writer::new(0);
        w.phase_spans(&spans);
        w.phase_spans(&[]);
        let frame = w.into_frame();
        let mut r = Reader::new(&frame);
        // f64 rides as raw bits, so the roundtrip is exact — required for
        // the cross-backend span-equality conformance check.
        assert_eq!(r.phase_spans().unwrap(), spans);
        assert_eq!(r.phase_spans().unwrap(), Vec::new());
        r.finish().unwrap();
    }

    #[test]
    fn eps_sketch_rides_the_wire_bit_identically() {
        let mut s = EpsSketch::new(8);
        for x in 0..500u64 {
            s.offer(x.wrapping_mul(0x9E37_79B9) % 1000);
        }
        let mut w = Writer::new(0);
        w.eps_sketch(&s);
        let frame = w.into_frame();
        let mut r = Reader::new(&frame);
        let got: EpsSketch<u64> = r.eps_sketch().unwrap();
        r.finish().unwrap();
        assert_eq!(got, s);
        assert_eq!(got.to_bytes(), s.to_bytes());
        // A truncated sketch payload is a typed error, not a panic.
        let mut r = Reader::new(&frame[..frame.len() - 1]);
        assert!(r.eps_sketch::<u64>().is_err());
    }

    #[test]
    fn unknown_phase_bytes_are_a_typed_error() {
        let frame = {
            let mut w = Writer::new(0);
            w.usize(1);
            w.into_frame()
        };
        let mut frame = frame;
        frame.push(9); // not a Phase discriminant
        frame.extend_from_slice(&[0u8; 48]); // time + comm payload
        let mut r = Reader::new(&frame);
        let err = r.phase_spans().unwrap_err();
        assert!(err.detail.contains("unknown phase byte"), "{err}");
    }

    #[test]
    fn rank_set_wire_size_is_per_run_not_per_rank() {
        // TopK(100_000) must ride as one run, not 100k ranks.
        let ranks = RankSet::from_runs(vec![(0, 100_000)]);
        let mut w = Writer::new(0);
        w.rank_set(&ranks);
        assert!(w.into_frame().len() < 64, "a single run must encode in O(1) bytes");
    }

    #[test]
    fn truncated_frames_are_a_typed_error() {
        // A half-written frame from a dying peer must surface as a decode
        // error the host can convert into `BackendError::Runtime`, never as
        // a panic that aborts the reader.
        let mut w = Writer::new(0);
        w.u64(1);
        let mut frame = w.into_frame();
        frame.pop();
        let mut r = Reader::new(&frame);
        let err = r.u64().unwrap_err();
        assert!(err.detail.contains("wire frame truncated"), "{err}");
    }

    #[test]
    fn truncation_mid_aggregate_is_a_typed_error() {
        // Truncation inside a length-prefixed aggregate (the realistic
        // half-written-reply shape) errors too, at whatever field the bytes
        // run out.
        let mut w = Writer::new(0);
        w.keys(&[10u64, 20, 30]);
        let frame = w.into_frame();
        for cut in 1..frame.len() {
            let mut r = Reader::new(&frame[..cut]);
            assert!(r.keys::<u64>().is_err(), "cut at {cut} must fail to decode");
        }
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut w = Writer::new(0);
        w.u64(7);
        let mut frame = w.into_frame();
        frame.push(0xEE);
        let mut r = Reader::new(&frame);
        r.u64().unwrap();
        let err = r.finish().unwrap_err();
        assert!(err.detail.contains("trailing"), "{err}");
    }
}
