//! The element type abstraction shared by the whole stack.

use crate::wiremsg::WireMsg;

/// An orderable, copyable element that can ride in messages.
///
/// All selection and load-balancing code is generic over `Key`. The sentinel
/// constants exist for algorithms that pad with extreme values (e.g. bitonic
/// sort pads short local arrays with `MAX_SENTINEL`).
///
/// [`WireMsg`] is a supertrait: a key's wire encoding is its `WireMsg` one,
/// so every `Key` (and every tuple / `Option` / `Vec` composition of keys)
/// can ride an out-of-process collective fabric or a message-passing
/// backend's command frames. [`WIRE_TAG`](Key::WIRE_TAG) names the concrete
/// type on the wire so a worker *process* can instantiate the right
/// monomorphized shard.
pub trait Key: Copy + Ord + Send + Sync + std::fmt::Debug + 'static + WireMsg {
    /// A value ordered ≤ every value of the type.
    const MIN_SENTINEL: Self;
    /// A value ordered ≥ every value of the type.
    const MAX_SENTINEL: Self;
    /// Stable one-byte identifier of this key type, carried in worker
    /// handshakes so both sides of a process boundary agree on the element
    /// type before any data frame flows.
    const WIRE_TAG: u8;
}

macro_rules! impl_key_for_int {
    ($($t:ty => $tag:literal),*) => {
        $(impl Key for $t {
            const MIN_SENTINEL: Self = <$t>::MIN;
            const MAX_SENTINEL: Self = <$t>::MAX;
            const WIRE_TAG: u8 = $tag;
        })*
    };
}

impl_key_for_int!(
    u8 => 1, u16 => 2, u32 => 3, u64 => 4, u128 => 5, usize => 6,
    i8 => 7, i16 => 8, i32 => 9, i64 => 10, i128 => 11, isize => 12
);

/// A totally ordered `f64` (ordered by `f64::total_cmp`), so floating-point
/// data can be used as selection keys.
///
/// NaNs order after +∞ under `total_cmp`; the sentinels are therefore the
/// extreme NaN bit patterns, guaranteeing the sentinel property even for
/// inputs containing infinities or NaNs.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrdF64(pub f64);

impl OrdF64 {
    /// Wraps a raw `f64`.
    #[inline]
    pub fn new(v: f64) -> Self {
        OrdF64(v)
    }

    /// Unwraps to the raw `f64`.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Key for OrdF64 {
    // Under `total_cmp`, the NaN with sign bit set and all-ones payload is
    // the minimum of the whole type, and its positive twin is the maximum —
    // these bound every float including infinities and ordinary NaNs.
    const MIN_SENTINEL: Self = OrdF64(f64::from_bits(0xFFFF_FFFF_FFFF_FFFF));
    const MAX_SENTINEL: Self = OrdF64(f64::from_bits(0x7FFF_FFFF_FFFF_FFFF));
    const WIRE_TAG: u8 = 13;
}

impl From<f64> for OrdF64 {
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}
impl From<OrdF64> for f64 {
    fn from(v: OrdF64) -> Self {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::absurd_extreme_comparisons)] // the triviality IS the property
    fn int_sentinels_bound_everything() {
        for v in [-5i64, 0, 7, i64::MAX - 1] {
            assert!(i64::MIN_SENTINEL <= v);
            assert!(v <= i64::MAX_SENTINEL);
        }
    }

    #[test]
    fn ordf64_total_order() {
        let mut v = [OrdF64(3.0), OrdF64(-1.0), OrdF64(f64::INFINITY), OrdF64(0.0)];
        v.sort();
        assert_eq!(v[0], OrdF64(-1.0));
        assert_eq!(v[3], OrdF64(f64::INFINITY));
    }

    #[test]
    fn ordf64_sentinels_bound_infinities() {
        assert!(OrdF64::MIN_SENTINEL <= OrdF64(f64::NEG_INFINITY));
        assert!(OrdF64(f64::INFINITY) <= OrdF64::MAX_SENTINEL);
        assert!(OrdF64::MIN_SENTINEL <= OrdF64(0.0));
    }

    #[test]
    fn ordf64_negative_zero_sorts_before_positive_zero() {
        // total_cmp distinguishes -0.0 < +0.0; the order is total either way.
        assert!(OrdF64(-0.0) < OrdF64(0.0));
    }
}
