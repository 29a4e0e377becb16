//! Wire encoding for message payloads: the [`WireMsg`] trait.
//!
//! The in-process transports move payloads as `Box<dyn Any>` — zero copies,
//! zero encoding. An out-of-process fabric (shard workers as real child
//! processes, messages over sockets) needs every payload to cross a byte
//! boundary instead. `WireMsg` is that contract: a canonical little-endian
//! encoding with a fallible decoder, implemented for every payload shape the
//! collectives and the selection algorithms put on the fabric — scalars,
//! strings, tuples up to arity 4, `Option<T>` and `Vec<T>` compositions thereof.
//!
//! It is the only byte codec in the stack. The engine's message-passing
//! backend frames its control plane with it too — every host→worker command
//! and worker→host reply is a tag byte followed by `WireMsg` values, decoded
//! through one [`WireReader`] — and its ε-sketch serializes through it, so
//! one set of truncation, flag-byte and trailing-byte checks guards every
//! frame.
//!
//! Two properties matter:
//!
//! * **Transport invariance of virtual time.** Modeled message sizes are
//!   computed from `size_of::<T>()` *before* encoding (see
//!   [`crate::Proc::send`]), so the wire layout here never perturbs the
//!   virtual clock — a program run over sockets charges exactly the bytes an
//!   in-process run charges.
//! * **Fallible decode.** A half-written frame from a dying peer must surface
//!   as a typed error the runtime can report, never as an abort of the
//!   receiving process.

use crate::key::OrdF64;

/// Error produced when decoding a wire payload fails (truncated frame,
/// invalid discriminant, trailing garbage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsgError {
    /// Human-readable description of the decode failure.
    pub detail: String,
}

impl WireMsgError {
    /// Builds an error from a human-readable description.
    pub fn new(detail: impl Into<String>) -> Self {
        WireMsgError { detail: detail.into() }
    }
}

impl std::fmt::Display for WireMsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire payload decode failed: {}", self.detail)
    }
}

impl std::error::Error for WireMsgError {}

/// Cursor over a received byte frame, handing out slices with typed
/// truncation errors instead of panics.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or a truncation error.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireMsgError> {
        let end = self.pos.checked_add(n).ok_or_else(|| WireMsgError::new("length overflow"))?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| {
            WireMsgError::new(format!(
                "truncated: wanted {n} bytes at offset {}, frame holds {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A payload that can ride an out-of-process fabric: canonical little-endian
/// encoding plus a fallible decoder. See the module docs for the role this
/// plays; [`crate::Key`] requires it, so every element type is automatically
/// wire-capable.
pub trait WireMsg: Send + Sized + 'static {
    /// Appends this value's canonical encoding to `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader, consuming exactly the bytes
    /// [`wire_encode`](WireMsg::wire_encode) produced.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError>;
}

/// Decodes a complete frame: one value, no trailing bytes.
pub fn decode_frame<T: WireMsg>(buf: &[u8]) -> Result<T, WireMsgError> {
    let mut r = WireReader::new(buf);
    let v = T::wire_decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireMsgError::new(format!("{} trailing bytes after payload", r.remaining())));
    }
    Ok(v)
}

/// Encodes a slice exactly as a `Vec` holding it encodes — the length, then
/// each element — without first cloning it into one.
pub fn encode_slice<T: WireMsg>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).wire_encode(out);
    out.reserve(std::mem::size_of_val(items));
    for v in items {
        v.wire_encode(out);
    }
}

/// Encodes one value as a standalone frame.
pub fn encode_frame<T: WireMsg>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire_encode(&mut out);
    out
}

macro_rules! impl_wiremsg_int {
    ($($t:ty),*) => {
        $(impl WireMsg for $t {
            fn wire_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("length checked by take")))
            }
        })*
    };
}

impl_wiremsg_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

// usize/isize travel as 8 bytes regardless of host width, so frames are
// portable across mixed-width fleets.
impl WireMsg for usize {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let v = u64::wire_decode(r)?;
        usize::try_from(v).map_err(|_| WireMsgError::new(format!("usize value {v} overflows host")))
    }
}

impl WireMsg for isize {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as i64).to_le_bytes());
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let v = i64::wire_decode(r)?;
        isize::try_from(v).map_err(|_| WireMsgError::new(format!("isize value {v} overflows host")))
    }
}

impl WireMsg for () {
    fn wire_encode(&self, _out: &mut Vec<u8>) {}

    fn wire_decode(_r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        Ok(())
    }
}

impl WireMsg for bool {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        match u8::wire_decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireMsgError::new(format!("invalid bool byte {b:#x}"))),
        }
    }
}

/// The UTF-8 bytes, as a `Vec<u8>` encodes; bytes that are not UTF-8 are
/// a typed error.
impl WireMsg for String {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_slice(self.as_bytes(), out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        String::from_utf8(Vec::wire_decode(r)?)
            .map_err(|e| WireMsgError::new(format!("string is not UTF-8: {e}")))
    }
}

// Bit-pattern encoding: round-trips every float exactly, NaN payloads and
// signed zeros included.
impl WireMsg for f64 {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        Ok(f64::from_bits(u64::wire_decode(r)?))
    }
}

impl WireMsg for OrdF64 {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        Ok(OrdF64(f64::wire_decode(r)?))
    }
}

impl<T: WireMsg> WireMsg for Option<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_encode(out);
            }
        }
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        match u8::wire_decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::wire_decode(r)?)),
            b => Err(WireMsgError::new(format!("invalid Option discriminant {b:#x}"))),
        }
    }
}

impl<T: WireMsg> WireMsg for Vec<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_slice(self, out);
    }

    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
        let len = usize::wire_decode(r)?;
        // A corrupt length must not drive allocation: reserve no more
        // elements than there are bytes left (an element that takes no
        // bytes allocates nothing), and let growth follow the decoded
        // elements (truncation errors out naturally).
        let mut out = Vec::with_capacity(len.min(4096).min(r.remaining()));
        for _ in 0..len {
            out.push(T::wire_decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! impl_wiremsg_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: WireMsg),+> WireMsg for ($($name,)+) {
            fn wire_encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.wire_encode(out);)+
            }

            fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireMsgError> {
                Ok(($($name::wire_decode(r)?,)+))
            }
        }
    };
}

impl_wiremsg_tuple!(A: 0, B: 1);
impl_wiremsg_tuple!(A: 0, B: 1, C: 2);
impl_wiremsg_tuple!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: WireMsg + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode_frame(&v);
        assert_eq!(decode_frame::<T>(&buf).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-7i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(());
        round_trip(1.5f64);
        round_trip(String::from("héllo"));
    }

    #[test]
    fn compositions_round_trip() {
        round_trip(Some(42u64));
        round_trip(None::<u64>);
        round_trip(vec![1u32, 2, 3]);
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip((7usize, 9u64));
        round_trip((1u64, 2u64, 3u64));
        round_trip((1u64, 2u64, 3u64, 4u64));
        round_trip(vec![(Some(3u64), 1u64), (None, 0)]);
        round_trip(vec![(true, 5i32), (false, -5)]);
    }

    #[test]
    fn ordf64_bit_patterns_survive() {
        for v in [0.0, -0.0, f64::INFINITY, f64::NAN] {
            let buf = encode_frame(&OrdF64(v));
            let back = decode_frame::<OrdF64>(&buf).unwrap();
            assert_eq!(back.0.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let buf = encode_frame(&vec![1u64, 2, 3]);
        let err = decode_frame::<Vec<u64>>(&buf[..buf.len() - 3]).unwrap_err();
        assert!(err.detail.contains("truncated"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut buf = encode_frame(&7u64);
        buf.push(0xFF);
        let err = decode_frame::<u64>(&buf).unwrap_err();
        assert!(err.detail.contains("trailing"), "{err}");
    }

    #[test]
    fn invalid_discriminants_are_typed_errors() {
        assert!(decode_frame::<bool>(&[2]).is_err());
        assert!(decode_frame::<Option<u8>>(&[9, 0]).is_err());
        assert!(decode_frame::<String>(&encode_frame(&vec![0xFFu8])).is_err());
    }

    #[test]
    fn empty_unit_vec_cannot_allocate_unbounded() {
        // Vec<()> elements are zero bytes on the wire; a hostile length must
        // not drive a huge allocation. Decode succeeds (nothing to truncate)
        // but is bounded by actual pushes.
        let buf = encode_frame(&vec![(); 10]);
        assert_eq!(decode_frame::<Vec<()>>(&buf).unwrap().len(), 10);
    }
}
