//! The digit-array `Id`/`Prefix` the packed word replaced, kept as the
//! model the packed operations are compared against: one byte per digit,
//! every operation a loop over the array.

use crate::{Id, IdSpace, Prefix, MAX_DIGITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct ModelId {
    digits: [u8; MAX_DIGITS],
    len: u8,
    base: u8,
}

impl ModelId {
    fn from_digits(space: IdSpace, digits: &[u8]) -> Self {
        assert_eq!(digits.len(), space.digits as usize, "wrong digit count");
        let mut d = [0u8; MAX_DIGITS];
        for (i, &x) in digits.iter().enumerate() {
            assert!(x < space.base, "digit {x} out of range for base {}", space.base);
            d[i] = x;
        }
        ModelId { digits: d, len: space.digits, base: space.base }
    }

    fn from_u64(space: IdSpace, mut value: u64) -> Self {
        let mut d = [0u8; MAX_DIGITS];
        for i in (0..space.digits as usize).rev() {
            d[i] = (value % space.base as u64) as u8;
            value /= space.base as u64;
        }
        ModelId { digits: d, len: space.digits, base: space.base }
    }

    fn to_u64(self) -> u64 {
        let mut v: u64 = 0;
        for i in 0..self.len as usize {
            v = v * self.base as u64 + self.digits[i] as u64;
        }
        v
    }

    fn random<R: Rng + ?Sized>(space: IdSpace, rng: &mut R) -> Self {
        let mut d = [0u8; MAX_DIGITS];
        for slot in d.iter_mut().take(space.digits as usize) {
            *slot = rng.gen_range(0..space.base);
        }
        ModelId { digits: d, len: space.digits, base: space.base }
    }

    fn digit(&self, i: usize) -> u8 {
        assert!(i < self.len as usize);
        self.digits[i]
    }

    fn digits(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    fn shared_prefix_len(&self, other: &ModelId) -> usize {
        let n = (self.len.min(other.len)) as usize;
        for i in 0..n {
            if self.digits[i] != other.digits[i] {
                return i;
            }
        }
        n
    }

    fn with_digit(&self, i: usize, d: u8) -> ModelId {
        assert!(i < self.len as usize && d < self.base);
        let mut out = *self;
        out.digits[i] = d;
        out
    }

    fn display(&self) -> String {
        struct Digits<'a>(&'a [u8]);
        impl std::fmt::Display for Digits<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.iter().try_for_each(|&d| crate::hex::write_digit(f, d))
            }
        }
        Digits(self.digits()).to_string()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct ModelPrefix {
    digits: [u8; MAX_DIGITS],
    len: u8,
    base: u8,
}

impl ModelPrefix {
    fn new(id: &ModelId, len: usize) -> Self {
        assert!(len <= id.len as usize);
        let mut d = [0u8; MAX_DIGITS];
        d[..len].copy_from_slice(&id.digits()[..len]);
        ModelPrefix { digits: d, len: len as u8, base: id.base }
    }

    fn digits(&self) -> &[u8] {
        &self.digits[..self.len as usize]
    }

    fn matches(&self, id: &ModelId) -> bool {
        self.len <= id.len && id.digits()[..self.len as usize] == self.digits[..self.len as usize]
    }

    fn extend(&self, j: u8) -> ModelPrefix {
        assert!((self.len as usize) < MAX_DIGITS && j < self.base);
        let mut out = *self;
        out.digits[self.len as usize] = j;
        out.len += 1;
        out
    }

    fn shorten(&self) -> ModelPrefix {
        assert!(self.len > 0);
        let mut out = *self;
        out.len -= 1;
        out.digits[out.len as usize] = 0;
        out
    }

    fn contains(&self, other: &ModelPrefix) -> bool {
        other.len >= self.len
            && other.digits[..self.len as usize] == self.digits[..self.len as usize]
    }

    fn display(&self) -> String {
        if self.len == 0 {
            return "ε".into();
        }
        ModelId { digits: self.digits, len: self.len, base: self.base }.display()
    }
}

/// The packed `id` is the model `m`, digit for digit and numeral for numeral.
fn assert_same(id: &Id, m: &ModelId) {
    assert_eq!((id.len(), id.base()), (m.len as usize, m.base));
    assert!(id.digits().eq(m.digits().iter().copied()), "{id} vs {m:?}");
    assert_eq!(id.digits().len(), m.digits().len());
    for i in 0..id.len() {
        assert_eq!(id.digit(i), m.digit(i));
    }
    assert_eq!(id.to_string(), m.display());
    assert_eq!(id.to_u64(), m.to_u64());
}

fn assert_same_prefix(p: &Prefix, m: &ModelPrefix) {
    assert_eq!((p.len(), p.base(), p.is_empty()), (m.len as usize, m.base, m.len == 0));
    assert!(p.digits().eq(m.digits().iter().copied()), "{p} vs {m:?}");
    assert_eq!(p.to_string(), m.display());
}

/// A pair of names: half the time independent, half the time sharing a
/// random number of leading digits (independent draws almost never share
/// more than one or two).
fn draw_pair(space: IdSpace, rng: &mut StdRng) -> (Vec<u8>, Vec<u8>) {
    let n = space.digits as usize;
    let a: Vec<u8> = (0..n).map(|_| rng.gen_range(0..space.base)).collect();
    let mut b: Vec<u8> = (0..n).map(|_| rng.gen_range(0..space.base)).collect();
    if rng.gen_bool(0.5) {
        let keep = rng.gen_range(0..=n);
        b[..keep].copy_from_slice(&a[..keep]);
    }
    (a, b)
}

const SPACES: [(u8, u8); 6] = [(16, 8), (2, 16), (4, 10), (10, 6), (32, 7), (255, 8)];

#[test]
fn packed_ids_match_the_digit_array_model() {
    for (base, digits) in SPACES {
        let space = IdSpace::new(base, digits);
        let mut rng = StdRng::seed_from_u64(0x1D ^ (base as u64) << 8);
        for _ in 0..400 {
            let (da, db) = draw_pair(space, &mut rng);
            let (a, b) = (Id::from_digits(space, &da), Id::from_digits(space, &db));
            let (ma, mb) = (ModelId::from_digits(space, &da), ModelId::from_digits(space, &db));
            assert_same(&a, &ma);
            assert_same(&b, &mb);
            assert_eq!(a.space(), space);
            assert_eq!(a.shared_prefix_len(&b), ma.shared_prefix_len(&mb), "{a} {b}");
            assert_eq!(a.shared_prefix_len(&a), ma.shared_prefix_len(&ma));
            assert_eq!(a.cmp(&b), ma.cmp(&mb), "{a} {b}");
            assert_eq!(a == b, ma == mb);
            let (i, d) = (rng.gen_range(0..digits as usize), rng.gen_range(0..base));
            assert_same(&a.with_digit(i, d), &ma.with_digit(i, d));
            // The numeral, both ways (any u64: the high digits fall off).
            assert_eq!(Id::from_u64(space, a.to_u64()), a);
            let v: u64 = if rng.gen_bool(0.5) { rng.gen() } else { rng.gen_range(0..1 << 16) };
            assert_same(&Id::from_u64(space, v), &ModelId::from_u64(space, v));
        }
    }
}

#[test]
fn random_ids_consume_the_rng_like_the_model() {
    for (base, digits) in SPACES {
        let space = IdSpace::new(base, digits);
        let (mut r1, mut r2) = (StdRng::seed_from_u64(99), StdRng::seed_from_u64(99));
        for _ in 0..200 {
            assert_same(&Id::random(space, &mut r1), &ModelId::random(space, &mut r2));
        }
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "same draws, same stream position");
    }
}

#[test]
fn packed_prefixes_match_the_digit_array_model() {
    for (base, digits) in SPACES {
        let space = IdSpace::new(base, digits);
        let mut rng = StdRng::seed_from_u64(0xF1 ^ (base as u64) << 8);
        for _ in 0..400 {
            let (da, db) = draw_pair(space, &mut rng);
            let (a, b) = (Id::from_digits(space, &da), Id::from_digits(space, &db));
            let (ma, mb) = (ModelId::from_digits(space, &da), ModelId::from_digits(space, &db));
            let (la, lb) = (rng.gen_range(0..=da.len()), rng.gen_range(0..=db.len()));
            let (p, q) = (a.prefix(la), b.prefix(lb));
            let (mp, mq) = (ModelPrefix::new(&ma, la), ModelPrefix::new(&mb, lb));
            assert_same_prefix(&p, &mp);
            assert_same_prefix(&q, &mq);
            for (i, &d) in da.iter().enumerate().take(la) {
                assert_eq!(p.digit(i), d);
            }
            assert_eq!(p.matches(&b), mp.matches(&mb), "{p} {b}");
            assert_eq!(b.has_prefix(&p), mp.matches(&mb));
            assert!(p.matches(&a));
            assert_eq!(p.contains(&q), mp.contains(&mq), "{p} {q}");
            assert_eq!(p == q, mp == mq, "{p} {q}");
            if la < da.len() {
                let j = rng.gen_range(0..base);
                assert_same_prefix(&p.extend(j), &mp.extend(j));
                assert_eq!(p.extend(j).shorten(), p);
            }
            if la > 0 {
                assert_same_prefix(&p.shorten(), &mp.shorten());
                assert_eq!(
                    p.shorten(),
                    a.prefix(la - 1),
                    "a shortened prefix keeps no stale digit"
                );
            }
        }
        assert_same_prefix(
            &Prefix::empty(base),
            &ModelPrefix::new(&ModelId::from_u64(space, 0), 0),
        );
    }
}

#[test]
fn the_name_types_keep_their_size() {
    assert_eq!((std::mem::size_of::<Id>(), std::mem::align_of::<Id>()), (10, 1));
    assert_eq!(std::mem::size_of::<Prefix>(), 10);
    assert_eq!(std::mem::size_of::<crate::Guid>(), 10);
}
