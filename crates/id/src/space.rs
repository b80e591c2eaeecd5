/// The shape of an identifier namespace: digit radix and name length.
///
/// All identifiers that interact (node IDs, GUIDs, prefixes) must come from
/// the same `IdSpace`. The paper's Property 3 (unique root set) only makes
/// sense when `MAPROOTS` is evaluated against a fixed namespace shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpace {
    /// Digit radix `b` (the paper uses 16).
    pub base: u8,
    /// Number of digits in every full-length identifier.
    pub digits: u8,
}

impl IdSpace {
    /// Create a namespace with radix `base` and `digits` digits per name.
    ///
    /// # Panics
    /// If [`IdSpace::try_new`] would refuse the shape.
    pub const fn new(base: u8, digits: u8) -> Self {
        match Self::refusal(base, digits) {
            None => IdSpace { base, digits },
            Some(why) => panic!("{}", why),
        }
    }

    /// [`IdSpace::new`] for shapes that come from input: an error instead
    /// of a panic.
    pub fn try_new(base: u8, digits: u8) -> Result<Self, String> {
        match Self::refusal(base, digits) {
            None => Ok(IdSpace { base, digits }),
            Some(why) => Err(format!("identifier space (base {base}, {digits} digits): {why}")),
        }
    }

    /// Why a shape is not a namespace. A name is one 64-bit word of
    /// [`IdSpace::digit_bits`]-wide digits, which is also what keeps
    /// every name's numeral ([`crate::Id::to_u64`]) inside a `u64`.
    const fn refusal(base: u8, digits: u8) -> Option<&'static str> {
        if base < 2 {
            Some("radix must be at least 2")
        } else if digits == 0 {
            Some("a name needs at least one digit")
        } else if Self::digit_bits(base) * digits as u32 > u64::BITS {
            Some("digits must fit one 64-bit word (4 bits each up to base 16, 8 above)")
        } else {
            None
        }
    }

    /// Bits one digit occupies in a packed name: a nibble while every
    /// digit fits one, a byte above base 16.
    pub(crate) const fn digit_bits(base: u8) -> u32 {
        if base <= 16 {
            4
        } else {
            8
        }
    }

    /// The conventional Tapestry namespace: base 16, 8 digits (32 bits).
    pub const fn base16() -> Self {
        IdSpace::new(16, 8)
    }

    /// Total number of distinct identifiers, saturating at `u64::MAX`.
    pub fn cardinality(&self) -> u64 {
        let mut n: u64 = 1;
        for _ in 0..self.digits {
            n = n.saturating_mul(self.base as u64);
        }
        n
    }

    /// Number of routing-table levels (= digits per name).
    pub fn levels(&self) -> usize {
        self.digits as usize
    }
}

impl Default for IdSpace {
    fn default() -> Self {
        IdSpace::base16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base16_shape() {
        let s = IdSpace::base16();
        assert_eq!(s.base, 16);
        assert_eq!(s.digits, 8);
        assert_eq!(s.levels(), 8);
        assert_eq!(s.cardinality(), 1 << 32);
    }

    #[test]
    fn a_space_past_one_word_is_refused() {
        // (255, 16) used to be admitted: `cardinality` saturated and
        // `Id::to_u64` multiplied past `u64`.
        for (base, digits) in [(255, 16), (255, 9), (17, 9), (16, 17), (2, 17), (1, 4), (16, 0)] {
            let refused = IdSpace::try_new(base, digits).expect_err("refused");
            assert!(refused.contains(&format!("base {base}, {digits} digits")), "{refused}");
        }
        assert!(std::panic::catch_unwind(|| IdSpace::new(255, 16)).is_err());
    }

    #[test]
    fn the_largest_admitted_spaces_round_trip() {
        use crate::Id;
        for (base, digits) in [(16u8, 16u8), (255, 8), (2, 16)] {
            let s = IdSpace::try_new(base, digits).expect("admitted");
            let top = vec![base - 1; digits as usize];
            let id = Id::from_digits(s, &top);
            assert!(id.digits().eq(top.iter().copied()));
            let v = id.to_u64();
            assert_eq!(v, (0..digits).fold(0u64, |v, _| v * base as u64 + (base - 1) as u64));
            assert_eq!(Id::from_u64(s, v), id, "({base}, {digits})");
            assert_eq!(Id::from_u64(s, 12345).to_u64(), 12345);
            assert_eq!(Id::from_u64(s, 0), Id::from_digits(s, &vec![0; digits as usize]));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_base_one() {
        IdSpace::new(1, 4);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_digits() {
        IdSpace::new(16, 0);
    }

    #[test]
    fn binary_space() {
        let s = IdSpace::new(2, 16);
        assert_eq!(s.cardinality(), 65536);
    }
}
