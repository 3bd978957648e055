//! Power-of-two datapath bit widths.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::AdgError;

/// A power-of-two datapath width in bits (§III-A: "most components can
/// specify a power-of-two datapath bitwidth").
///
/// `BitWidth` statically rules out non-power-of-two widths, which the DSAGEN
/// design space does not support (this is why e.g. Q100 cannot be
/// approximated, §III-C).
///
/// # Example
///
/// ```
/// use dsagen_adg::BitWidth;
///
/// let w = BitWidth::new(64)?;
/// assert_eq!(w.bits(), 64);
/// assert_eq!(w.bytes(), 8);
/// assert_eq!(w.halved(), Some(BitWidth::B32));
/// # Ok::<(), dsagen_adg::AdgError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BitWidth(u16);

impl BitWidth {
    /// 8-bit datapath.
    pub const B8: BitWidth = BitWidth(8);
    /// 16-bit datapath.
    pub const B16: BitWidth = BitWidth(16);
    /// 32-bit datapath.
    pub const B32: BitWidth = BitWidth(32);
    /// 64-bit datapath.
    pub const B64: BitWidth = BitWidth(64);

    /// Creates a width from a bit count.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::InvalidBitWidth`] when `bits` is zero, not a
    /// power of two, or larger than 4096.
    pub fn new(bits: u16) -> Result<Self, AdgError> {
        if bits == 0 || !bits.is_power_of_two() || bits > 4096 {
            return Err(AdgError::InvalidBitWidth(bits));
        }
        Ok(BitWidth(bits))
    }

    /// The width in bits.
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// The width in whole bytes (widths below 8 bits round up to one byte).
    #[must_use]
    pub fn bytes(self) -> u32 {
        u32::from(self.0).div_ceil(8)
    }

    /// Half this width, or `None` below 2 bits.
    #[must_use]
    pub fn halved(self) -> Option<BitWidth> {
        if self.0 >= 2 {
            Some(BitWidth(self.0 / 2))
        } else {
            None
        }
    }

    /// How many lanes of `lane` fit in this width (0 when `lane` is wider).
    #[must_use]
    pub(crate) fn lanes_of(self, lane: BitWidth) -> u16 {
        self.0 / lane.0
    }
}

impl Default for BitWidth {
    fn default() -> Self {
        BitWidth::B64
    }
}

impl fmt::Display for BitWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

impl TryFrom<u16> for BitWidth {
    type Error = AdgError;

    fn try_from(bits: u16) -> Result<Self, Self::Error> {
        BitWidth::new(bits)
    }
}

impl From<BitWidth> for u16 {
    fn from(w: BitWidth) -> u16 {
        w.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitWidth {
        /// Twice this width, or `None` above the 4096-bit ceiling.
        fn doubled(self) -> Option<BitWidth> {
            if self.0 <= 2048 {
                Some(BitWidth(self.0 * 2))
            } else {
                None
            }
        }
    }

    #[test]
    fn constructs_powers_of_two() {
        for bits in [1u16, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            assert_eq!(BitWidth::new(bits).unwrap().bits(), bits);
        }
    }

    #[test]
    fn rejects_non_powers_of_two() {
        for bits in [0u16, 3, 5, 6, 7, 9, 12, 24, 48, 65, 100, 8192] {
            assert!(BitWidth::new(bits).is_err(), "{bits} should be rejected");
        }
    }

    #[test]
    fn byte_count_rounds_up() {
        assert_eq!(BitWidth::new(1).unwrap().bytes(), 1);
        assert_eq!(BitWidth::new(4).unwrap().bytes(), 1);
        assert_eq!(BitWidth::B8.bytes(), 1);
        assert_eq!(BitWidth::B64.bytes(), 8);
        assert_eq!(BitWidth::new(512).unwrap().bytes(), 64);
    }

    #[test]
    fn halving_and_doubling_roundtrip() {
        let w = BitWidth::B64;
        assert_eq!(w.halved().unwrap().doubled().unwrap(), w);
        assert_eq!(BitWidth::new(1).unwrap().halved(), None);
        assert_eq!(BitWidth::new(4096).unwrap().doubled(), None);
    }

    #[test]
    fn lane_arithmetic() {
        assert_eq!(BitWidth::new(512).unwrap().lanes_of(BitWidth::B64), 8);
        assert_eq!(BitWidth::B64.lanes_of(BitWidth::B8), 8);
        assert_eq!(BitWidth::B8.lanes_of(BitWidth::B64), 0);
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(BitWidth::B64.to_string(), "64b");
    }

    #[test]
    fn ordering_follows_bit_count() {
        assert!(BitWidth::B8 < BitWidth::B16);
        assert!(BitWidth::new(512).unwrap() > BitWidth::B64);
    }
}
