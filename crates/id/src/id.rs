use crate::{IdSpace, Prefix};
use rand::Rng;
use std::fmt;

/// A full-length identifier: a string of digits in some [`IdSpace`].
///
/// `Id` is `Copy`, ten bytes and alignment 1, so a routing-table entry,
/// a backpointer or an object pointer pays for the 32 bits of name it
/// carries and little more. The digits are packed into one big-endian
/// 64-bit word, most significant first — `digit(0)` is the digit resolved
/// by a level-1 routing hop, matching the paper's "resolve one digit at a
/// time" model:
///
/// ```text
///  byte    0        1        2        3        4 .. 7     8     9
///       +--------+--------+--------+--------+----------+-----+------+
///       | d0  d1 | d2  d3 | d4  d5 | d6  d7 |   zero   | len | base |   base <= 16
///       |   d0   |   d1   |   d2   |   d3   | d4 .. d7 | len | base |   base  > 16
///       +--------+--------+--------+--------+----------+-----+------+
/// ```
///
/// A digit is 4 bits wide up to base 16 and 8 above; [`IdSpace`] admits a
/// shape only if `width · digits ≤ 64`. Unused low bits are zero, so byte
/// order is lexicographic digit order (the derived `Ord`) and two names
/// diverge at the first set bit of their XOR.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id {
    word: [u8; 8],
    len: u8,
    base: u8,
}

impl Id {
    /// `len` digits of `base` produced by `digit(i)`, in order.
    fn build(base: u8, len: u8, mut digit: impl FnMut(usize) -> u8) -> Self {
        let mut id = Id { word: [0; 8], len, base };
        for i in 0..len as usize {
            id = id.with_digit(i, digit(i));
        }
        id
    }

    #[inline]
    fn word(&self) -> u64 {
        u64::from_be_bytes(self.word)
    }

    /// How far digit `i` sits above the word's low end.
    #[inline]
    fn shift(&self, i: usize) -> u32 {
        u64::BITS - IdSpace::digit_bits(self.base) * (i as u32 + 1)
    }

    /// One digit's bits, at the word's low end.
    #[inline]
    fn mask(&self) -> u64 {
        (1 << IdSpace::digit_bits(self.base)) - 1
    }

    /// Build an identifier from explicit digits.
    ///
    /// # Panics
    /// If `digits.len()` disagrees with the space, or any digit `>= base`.
    pub fn from_digits(space: IdSpace, digits: &[u8]) -> Self {
        assert_eq!(digits.len(), space.digits as usize, "wrong digit count");
        Self::build(space.base, space.digits, |i| digits[i])
    }

    /// Interpret the low bits/digits of `value` as an identifier
    /// (most-significant digit first).
    pub fn from_u64(space: IdSpace, mut value: u64) -> Self {
        let mut id = Id { word: [0; 8], len: space.digits, base: space.base };
        for i in (0..space.digits as usize).rev() {
            id = id.with_digit(i, (value % space.base as u64) as u8);
            value /= space.base as u64;
        }
        id
    }

    /// The integer value of this identifier (digits as a base-`b` numeral).
    pub fn to_u64(&self) -> u64 {
        self.digits().fold(0, |v, d| v * self.base as u64 + d as u64)
    }

    /// Draw an identifier uniformly at random.
    pub fn random<R: Rng + ?Sized>(space: IdSpace, rng: &mut R) -> Self {
        Self::build(space.base, space.digits, |_| rng.gen_range(0..space.base))
    }

    /// The namespace this identifier belongs to.
    pub fn space(&self) -> IdSpace {
        IdSpace { base: self.base, digits: self.len }
    }

    /// Number of digits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the identifier has no digits (never for valid spaces).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Digit radix.
    pub fn base(&self) -> u8 {
        self.base
    }

    /// The `i`-th digit, most significant first: one shift and one mask.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        assert!(i < self.len as usize);
        ((self.word() >> self.shift(i)) & self.mask()) as u8
    }

    /// All digits, most significant first.
    #[inline]
    pub fn digits(&self) -> impl ExactSizeIterator<Item = u8> + '_ {
        (0..self.len as usize).map(|i| self.digit(i))
    }

    /// Length of the longest common prefix with `other`, in digits.
    ///
    /// This is the paper's `GreatestCommonPrefix`: the level at which two
    /// names diverge, and hence the routing level at which one appears in
    /// the other's neighbor table.
    #[inline]
    pub fn shared_prefix_len(&self, other: &Id) -> usize {
        debug_assert_eq!(self.base, other.base);
        let same = (self.word() ^ other.word()).leading_zeros() / IdSpace::digit_bits(self.base);
        (same as usize).min(self.len.min(other.len) as usize)
    }

    /// The prefix consisting of the first `len` digits.
    pub fn prefix(&self, len: usize) -> Prefix {
        Prefix::new(self, len)
    }

    /// The digit string of the first `len` digits alone — what a
    /// [`Prefix`] wraps.
    ///
    /// # Panics
    /// If `len > len()`.
    pub(crate) fn truncated(&self, len: usize) -> Id {
        assert!(len <= self.len as usize);
        let keep = if len == 0 { 0 } else { u64::MAX << self.shift(len - 1) };
        Id { word: (self.word() & keep).to_be_bytes(), len: len as u8, base: self.base }
    }

    /// This digit string with `d` appended (a [`Prefix`] growing by one).
    ///
    /// # Panics
    /// If the word has no room for another digit or `d >= base`.
    pub(crate) fn pushed(&self, d: u8) -> Id {
        assert!(IdSpace::digit_bits(self.base) * (self.len as u32 + 1) <= u64::BITS);
        Id { len: self.len + 1, ..*self }.with_digit(self.len as usize, d)
    }

    /// Does this identifier start with `prefix`?
    pub fn has_prefix(&self, prefix: &Prefix) -> bool {
        prefix.matches(self)
    }

    /// A copy of this identifier with digit `i` replaced by `d`.
    pub fn with_digit(&self, i: usize, d: u8) -> Id {
        assert!(i < self.len as usize && d < self.base, "digit {d} at {i} out of range");
        let word = (self.word() & !(self.mask() << self.shift(i))) | ((d as u64) << self.shift(i));
        Id { word: word.to_be_bytes(), ..*self }
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({self})")
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.digits().try_for_each(|d| crate::hex::write_digit(f, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const S: IdSpace = IdSpace::base16();

    #[test]
    fn roundtrip_u64() {
        for v in [0u64, 1, 0xDEAD_BEEF, 0xFFFF_FFFF] {
            let id = Id::from_u64(S, v);
            assert_eq!(id.to_u64(), v);
        }
    }

    #[test]
    fn digits_msb_first() {
        let id = Id::from_u64(S, 0x4227_0000);
        assert_eq!(id.digit(0), 4);
        assert_eq!(id.digit(1), 2);
        assert_eq!(id.digit(2), 2);
        assert_eq!(id.digit(3), 7);
        assert_eq!(format!("{id}"), "42270000");
    }

    #[test]
    fn shared_prefix_matches_paper_example() {
        // Figure 1 of the paper: 4227 and 42A2 share the prefix "42".
        let a = Id::from_u64(S, 0x4227_0000);
        let b = Id::from_u64(S, 0x42A2_0000);
        assert_eq!(a.shared_prefix_len(&b), 2);
        assert_eq!(a.shared_prefix_len(&a), 8);
    }

    #[test]
    fn with_digit_changes_one_digit() {
        let a = Id::from_u64(S, 0);
        let b = a.with_digit(3, 0xF);
        assert_eq!(b.digit(3), 0xF);
        assert_eq!(a.shared_prefix_len(&b), 3);
    }

    #[test]
    fn random_ids_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let id = Id::random(S, &mut rng);
            assert!(id.digits().all(|d| d < 16));
        }
    }

    #[test]
    fn non_power_of_two_base() {
        let s = IdSpace::new(10, 6);
        let id = Id::from_u64(s, 123456);
        assert_eq!(format!("{id}"), "123456");
        assert_eq!(id.to_u64(), 123456);
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v in 0u64..(1 << 32)) {
            prop_assert_eq!(Id::from_u64(S, v).to_u64(), v);
        }

        #[test]
        fn prop_shared_prefix_symmetric(a in 0u64..(1 << 32), b in 0u64..(1 << 32)) {
            let (x, y) = (Id::from_u64(S, a), Id::from_u64(S, b));
            prop_assert_eq!(x.shared_prefix_len(&y), y.shared_prefix_len(&x));
        }

        #[test]
        fn prop_shared_prefix_digits_equal(a in 0u64..(1 << 32), b in 0u64..(1 << 32)) {
            let (x, y) = (Id::from_u64(S, a), Id::from_u64(S, b));
            let p = x.shared_prefix_len(&y);
            for i in 0..p {
                prop_assert_eq!(x.digit(i), y.digit(i));
            }
            if p < 8 {
                prop_assert_ne!(x.digit(p), y.digit(p));
            }
        }

        /// The triangle-like property of prefix length:
        /// shared(a,c) >= min(shared(a,b), shared(b,c)).
        /// Prefix metrics are ultrametrics; surrogate routing relies on this.
        #[test]
        fn prop_prefix_ultrametric(a in 0u64..(1 << 32), b in 0u64..(1 << 32), c in 0u64..(1 << 32)) {
            let (x, y, z) = (Id::from_u64(S, a), Id::from_u64(S, b), Id::from_u64(S, c));
            let ab = x.shared_prefix_len(&y);
            let bc = y.shared_prefix_len(&z);
            let ac = x.shared_prefix_len(&z);
            prop_assert!(ac >= ab.min(bc));
        }
    }
}
