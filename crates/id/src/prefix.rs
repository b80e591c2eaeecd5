use crate::Id;
use std::fmt;

/// A prefix of an identifier: the first `len` digits of some name, held
/// as the shorter digit string it is.
///
/// Prefixes name the multicast groups of the paper's acknowledged multicast
/// (§4.1) and the neighbor sets `N_{α,j}` of the routing mesh (§2.1): the
/// `(α, j)` nodes are exactly those whose IDs start with `α · j`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix(Id);

impl Prefix {
    /// The prefix made of the first `len` digits of `id`.
    ///
    /// # Panics
    /// If `len > id.len()`.
    pub fn new(id: &Id, len: usize) -> Self {
        Prefix(id.truncated(len))
    }

    /// The empty prefix (matched by every identifier of the same base).
    pub fn empty(base: u8) -> Self {
        Prefix(Id::from_u64(crate::IdSpace { base, digits: 0 }, 0))
    }

    /// Number of digits in the prefix.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty prefix.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Digit radix.
    pub fn base(&self) -> u8 {
        self.0.base()
    }

    /// The digits of this prefix.
    pub fn digits(&self) -> impl ExactSizeIterator<Item = u8> + '_ {
        self.0.digits()
    }

    /// The `i`-th digit of the prefix.
    pub fn digit(&self, i: usize) -> u8 {
        self.0.digit(i)
    }

    /// Does `id` start with this prefix?
    pub fn matches(&self, id: &Id) -> bool {
        self.len() <= id.len() && self.0.shared_prefix_len(id) == self.len()
    }

    /// The one-digit extension `α · j` of this prefix (the paper's
    /// `(α, j)` group).
    ///
    /// # Panics
    /// If the prefix is already full-length or `j >= base`.
    pub fn extend(&self, j: u8) -> Prefix {
        Prefix(self.0.pushed(j))
    }

    /// The prefix one digit shorter (parent group in the multicast tree).
    ///
    /// # Panics
    /// If the prefix is empty.
    pub fn shorten(&self) -> Prefix {
        assert!(!self.is_empty());
        Prefix(self.0.truncated(self.len() - 1))
    }

    /// Is `other` an extension of (or equal to) `self`?
    pub fn contains(&self, other: &Prefix) -> bool {
        self.matches(&other.0)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdSpace;
    use proptest::prelude::*;

    const S: IdSpace = IdSpace::base16();

    fn id(v: u64) -> Id {
        Id::from_u64(S, v)
    }

    #[test]
    fn empty_prefix_matches_everything() {
        let p = Prefix::empty(16);
        assert!(p.matches(&id(0)));
        assert!(p.matches(&id(0xFFFF_FFFF)));
        assert_eq!(format!("{p}"), "ε");
    }

    #[test]
    fn prefix_matches_own_id() {
        let a = id(0x4227_0000);
        for l in 0..=8 {
            assert!(a.prefix(l).matches(&a));
        }
    }

    #[test]
    fn extend_then_matches() {
        let a = id(0x4227_0000);
        let p = a.prefix(2); // "42"
        let q = p.extend(2); // "422"
        assert!(q.matches(&a));
        let r = p.extend(0xA); // "42A"
        assert!(!r.matches(&a));
        assert!(r.matches(&id(0x42A2_0000)));
    }

    #[test]
    fn shorten_inverts_extend() {
        let a = id(0x1234_5678);
        let p = a.prefix(4);
        assert_eq!(p.extend(9).shorten(), p);
    }

    #[test]
    fn contains_is_prefix_order() {
        let a = id(0x4227_0000);
        assert!(a.prefix(2).contains(&a.prefix(4)));
        assert!(!a.prefix(4).contains(&a.prefix(2)));
        assert!(a.prefix(3).contains(&a.prefix(3)));
    }

    #[test]
    fn display_uses_hex_digits() {
        let a = id(0x42A2_0000);
        assert_eq!(format!("{}", a.prefix(3)), "42A");
    }

    proptest! {
        #[test]
        fn prop_prefix_matches_source(v in 0u64..(1 << 32), l in 0usize..=8) {
            let a = id(v);
            prop_assert!(a.prefix(l).matches(&a));
        }

        #[test]
        fn prop_match_iff_shared_prefix(v in 0u64..(1 << 32), w in 0u64..(1 << 32), l in 0usize..=8) {
            let (a, b) = (id(v), id(w));
            prop_assert_eq!(a.prefix(l).matches(&b), a.shared_prefix_len(&b) >= l);
        }
    }
}
