use crate::{IdSpace, Prefix, MAX_DIGITS};
use rand::Rng;
use std::fmt;

/// A full-length identifier: a string of digits in some [`IdSpace`].
///
/// `Id` is `Copy` and lives entirely on the stack so that routing-table
/// lookups and prefix comparisons never allocate. Digits are stored
/// most-significant first: `digit(0)` is the digit resolved by a level-1
/// routing hop, matching the paper's "resolve one digit at a time" model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id {
    digits: [u8; MAX_DIGITS],
    len: u8,
    base: u8,
}

impl Id {
    /// Build an identifier from explicit digits.
    ///
    /// # Panics
    /// If `digits.len()` disagrees with the space, or any digit `>= base`.
    pub fn from_digits(space: IdSpace, digits: &[u8]) -> Self {
        assert_eq!(digits.len(), space.digits as usize, "wrong digit count");
        let mut d = [0u8; MAX_DIGITS];
        for (i, &x) in digits.iter().enumerate() {
            assert!(x < space.base, "digit {x} out of range for base {}", space.base);
            d[i] = x;
        }
        Id { digits: d, len: space.digits, base: space.base }
    }

    /// Interpret the low bits/digits of `value` as an identifier
    /// (most-significant digit first).
    pub fn from_u64(space: IdSpace, mut value: u64) -> Self {
        let mut d = [0u8; MAX_DIGITS];
        for i in (0..space.digits as usize).rev() {
            d[i] = (value % space.base as u64) as u8;
            value /= space.base as u64;
        }
        Id { digits: d, len: space.digits, base: space.base }
    }

    /// The integer value of this identifier (digits as a base-`b` numeral).
    pub fn to_u64(&self) -> u64 {
        let mut v: u64 = 0;
        for i in 0..self.len as usize {
            v = v * self.base as u64 + self.digits[i] as u64;
        }
        v
    }

    /// Draw an identifier uniformly at random.
    pub fn random<R: Rng + ?Sized>(space: IdSpace, rng: &mut R) -> Self {
        let mut d = [0u8; MAX_DIGITS];
        for slot in d.iter_mut().take(space.digits as usize) {
            *slot = rng.gen_range(0..space.base);
        }
        Id { digits: d, len: space.digits, base: space.base }
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

    /// The `i`-th digit, most significant first.
    ///
    /// The digit array is materialized once at construction (`Id` is a
    /// fixed inline buffer), so per-hop digit access in routing is a
    /// single inlined array read — nothing is re-extracted from a packed
    /// integer on the hot path.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn digit(&self, i: usize) -> u8 {
        assert!(i < self.len as usize);
        self.digits[i]
    }

    /// All digits as a slice.
    #[inline]
    pub fn digits(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    /// Length of the longest common prefix with `other`, in digits.
    ///
    /// This is the paper's `GreatestCommonPrefix`: the level at which two
    /// names diverge, and hence the routing level at which one appears in
    /// the other's neighbor table.
    #[inline]
    pub fn shared_prefix_len(&self, other: &Id) -> usize {
        debug_assert_eq!(self.base, other.base);
        let n = (self.len.min(other.len)) as usize;
        for i in 0..n {
            if self.digits[i] != other.digits[i] {
                return i;
            }
        }
        n
    }

    /// The prefix consisting of the first `len` digits.
    pub fn prefix(&self, len: usize) -> Prefix {
        Prefix::new(self, len)
    }

    /// Does this identifier start with `prefix`?
    pub fn has_prefix(&self, prefix: &Prefix) -> bool {
        prefix.matches(self)
    }

    /// A copy of this identifier with digit `i` replaced by `d`.
    pub fn with_digit(&self, i: usize, d: u8) -> Id {
        assert!(i < self.len as usize && d < self.base);
        let mut out = *self;
        out.digits[i] = d;
        out
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({self})")
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len as usize {
            crate::hex::write_digit(f, self.digits[i])?;
        }
        Ok(())
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
            assert!(id.digits().iter().all(|&d| d < 16));
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
