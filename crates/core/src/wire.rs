//! Wire format for routed messages — what a real deployment would put on
//! the network.
//!
//! The simulator exchanges `Msg` values in memory, but the paper reasons
//! about concrete header sizes (§4.4 notes a forwarded watch list is
//! "sixteen bits" per level; §4.3 justifies carrying the visited list
//! because "the number of hops is small"). This module gives those
//! arguments teeth: a compact, versioned binary encoding for the
//! hop-by-hop routed header, used by tests and experiments to account for
//! bytes-on-wire, plus a decoder proving the format round-trips.

use crate::messages::{OpId, RoutedKind, RoutedMsg};
use crate::refs::NodeRef;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tapestry_id::{Guid, Id, IdSpace};

/// Format version tag (first byte of every encoded message).
pub const WIRE_VERSION: u8 = 1;

const KIND_PUBLISH: u8 = 1;
const KIND_LOCATE: u8 = 2;
const KIND_FIND_SURROGATE: u8 = 3;

/// Errors produced by [`decode_routed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the message did.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown kind tag.
    BadKind(u8),
    /// A name whose `(base, digits)` is not an identifier space.
    BadIdSpace(u8, u8),
}

fn put_id(buf: &mut BytesMut, id: &Id) {
    buf.put_u8(id.base());
    buf.put_u8(id.len() as u8);
    buf.put_u64(id.to_u64());
}

fn get_id(buf: &mut Bytes) -> Result<Id, WireError> {
    if buf.remaining() < 10 {
        return Err(WireError::Truncated);
    }
    let base = buf.get_u8();
    let len = buf.get_u8();
    let v = buf.get_u64();
    let space = IdSpace::try_new(base, len).map_err(|_| WireError::BadIdSpace(base, len))?;
    Ok(Id::from_u64(space, v))
}

fn put_ref(buf: &mut BytesMut, r: &NodeRef) {
    buf.put_u64(r.idx as u64);
    put_id(buf, &r.id);
}

fn get_ref(buf: &mut Bytes) -> Result<NodeRef, WireError> {
    if buf.remaining() < 8 {
        return Err(WireError::Truncated);
    }
    let idx = buf.get_u64() as usize;
    Ok(NodeRef::new(idx, get_id(buf)?))
}

/// Encode a routed message header into its on-wire form.
pub fn encode_routed(m: &RoutedMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + 8 * m.visited.len());
    buf.put_u8(WIRE_VERSION);
    put_id(&mut buf, &m.target);
    buf.put_u8(m.level as u8);
    let flags = u8::from(m.past_hole)
        | (u8::from(m.local_branch) << 1)
        | (u8::from(m.exclude.is_some()) << 2);
    buf.put_u8(flags);
    if let Some(e) = m.exclude {
        buf.put_u64(e as u64);
    }
    buf.put_u32(m.hops);
    buf.put_f64(m.dist);
    buf.put_u16(m.visited.len() as u16);
    for &v in &m.visited {
        buf.put_u64(v as u64);
    }
    match &m.kind {
        RoutedKind::Publish { guid, server } => {
            buf.put_u8(KIND_PUBLISH);
            put_id(&mut buf, &guid.id());
            put_ref(&mut buf, server);
        }
        RoutedKind::Locate { guid, origin, op, root_index } => {
            buf.put_u8(KIND_LOCATE);
            put_id(&mut buf, &guid.id());
            put_ref(&mut buf, origin);
            buf.put_u64(op.0);
            buf.put_u8(*root_index as u8);
        }
        RoutedKind::FindSurrogate { reply_to, op } => {
            buf.put_u8(KIND_FIND_SURROGATE);
            put_ref(&mut buf, reply_to);
            buf.put_u64(op.0);
        }
    }
    buf.freeze()
}

/// Decode a routed message header from its on-wire form.
pub fn decode_routed(mut buf: Bytes) -> Result<RoutedMsg, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let target = get_id(&mut buf)?;
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let level = buf.get_u8() as usize;
    let flags = buf.get_u8();
    let exclude = if flags & 0b100 != 0 {
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Some(buf.get_u64() as usize)
    } else {
        None
    };
    if buf.remaining() < 14 {
        return Err(WireError::Truncated);
    }
    let hops = buf.get_u32();
    let dist = buf.get_f64();
    let nvisited = buf.get_u16() as usize;
    if buf.remaining() < nvisited * 8 {
        return Err(WireError::Truncated);
    }
    let visited = (0..nvisited).map(|_| buf.get_u64() as usize).collect();
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let kind = match buf.get_u8() {
        KIND_PUBLISH => {
            let guid = Guid::new(get_id(&mut buf)?);
            let server = get_ref(&mut buf)?;
            RoutedKind::Publish { guid, server }
        }
        KIND_LOCATE => {
            let guid = Guid::new(get_id(&mut buf)?);
            let origin = get_ref(&mut buf)?;
            if buf.remaining() < 9 {
                return Err(WireError::Truncated);
            }
            let op = OpId(buf.get_u64());
            let root_index = buf.get_u8() as usize;
            RoutedKind::Locate { guid, origin, op, root_index }
        }
        KIND_FIND_SURROGATE => {
            let reply_to = get_ref(&mut buf)?;
            if buf.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            let op = OpId(buf.get_u64());
            RoutedKind::FindSurrogate { reply_to, op }
        }
        k => return Err(WireError::BadKind(k)),
    };
    Ok(RoutedMsg {
        kind,
        target,
        level,
        past_hole: flags & 0b001 != 0,
        exclude,
        hops,
        dist,
        visited,
        local_branch: flags & 0b010 != 0,
        // Trace identity is sim-side observability, not protocol state: it
        // never goes on the wire, so byte accounting is identical whether
        // or not a run samples traces.
        trace: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S: IdSpace = IdSpace::base16();

    fn sample_locate(visited: Vec<usize>) -> RoutedMsg {
        RoutedMsg {
            kind: RoutedKind::Locate {
                guid: Guid::from_u64(S, 0x4378_0000),
                origin: NodeRef::new(7, Id::from_u64(S, 0x197E_0000)),
                op: OpId::new(7, 3),
                root_index: 1,
            },
            target: Id::from_u64(S, 0x4378_0000),
            level: 2,
            past_hole: true,
            exclude: Some(42),
            hops: 3,
            dist: 123.456,
            visited,
            local_branch: false,
            trace: None,
        }
    }

    #[test]
    fn locate_roundtrip() {
        let m = sample_locate(vec![1, 2, 3]);
        let d = decode_routed(encode_routed(&m)).expect("decodes");
        assert_eq!(d.target, m.target);
        assert_eq!(d.level, 2);
        assert!(d.past_hole);
        assert_eq!(d.exclude, Some(42));
        assert_eq!(d.hops, 3);
        assert_eq!(d.dist, 123.456);
        assert_eq!(d.visited, vec![1, 2, 3]);
        match d.kind {
            RoutedKind::Locate { guid, origin, op, root_index } => {
                assert_eq!(guid, Guid::from_u64(S, 0x4378_0000));
                assert_eq!(origin.idx, 7);
                assert_eq!(op, OpId::new(7, 3));
                assert_eq!(root_index, 1);
            }
            k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn publish_and_find_surrogate_roundtrip() {
        for kind in [
            RoutedKind::Publish {
                guid: Guid::from_u64(S, 99),
                server: NodeRef::new(3, Id::from_u64(S, 0x39AA_0000)),
            },
            RoutedKind::FindSurrogate {
                reply_to: NodeRef::new(9, Id::from_u64(S, 0x4228_0000)),
                op: OpId::new(9, 1),
            },
        ] {
            let m = RoutedMsg {
                kind,
                target: Id::from_u64(S, 0xABCD_0123),
                level: 0,
                past_hole: false,
                exclude: None,
                hops: 0,
                dist: 0.0,
                visited: vec![],
                local_branch: true,
                trace: None,
            };
            let d = decode_routed(encode_routed(&m)).expect("decodes");
            assert!(d.local_branch);
            assert_eq!(d.target, m.target);
        }
    }

    /// The bytes the 18-byte digit-array `Id` encoded to: the numeral on
    /// the wire does not depend on how a name is held in memory.
    #[test]
    fn encoding_is_the_digit_array_ids() {
        let hex: String = encode_routed(&sample_locate(vec![1, 2, 3]))
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "01100800000000437800000205000000000000002a00000003405edd2f1a9fbe7700030000000000\
             00000100000000000000020000000000000003021008000000004378000000000000000000071008\
             00000000197e0000000007000000000301"
        );
    }

    #[test]
    fn a_name_outside_every_id_space_is_an_error_not_a_panic() {
        for (base, len) in [(1u8, 8u8), (16, 0), (16, 17), (255, 16)] {
            let mut raw = BytesMut::from(&encode_routed(&sample_locate(vec![]))[..]);
            (raw[1], raw[2]) = (base, len);
            assert_eq!(decode_routed(raw.freeze()).err(), Some(WireError::BadIdSpace(base, len)));
        }
    }

    #[test]
    fn header_is_compact() {
        // §4.3: carrying the visited list is cheap. A 4-hop locate header
        // fits comfortably in a hundred-odd bytes.
        let m = sample_locate(vec![1, 2, 3, 4]);
        let bytes = encode_routed(&m);
        assert!(bytes.len() < 128, "header too fat: {} bytes", bytes.len());
    }

    #[test]
    fn truncation_is_detected() {
        let m = sample_locate(vec![1, 2]);
        let full = encode_routed(&m);
        for cut in [0usize, 1, 5, 12, full.len() - 1] {
            let sliced = full.slice(0..cut);
            assert!(decode_routed(sliced).is_err(), "cut at {cut} should not decode");
        }
    }

    #[test]
    fn bad_version_rejected() {
        let m = sample_locate(vec![]);
        let mut raw = BytesMut::from(&encode_routed(&m)[..]);
        raw[0] = 9;
        assert!(matches!(decode_routed(raw.freeze()), Err(WireError::BadVersion(9))));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(target in 0u64..(1 << 32), level in 0usize..8,
                          hops in 0u32..64, nvis in 0usize..10, dist in 0.0f64..1e6) {
            let m = RoutedMsg {
                kind: RoutedKind::Publish {
                    guid: Guid::from_u64(S, target ^ 0x5555),
                    server: NodeRef::new(11, Id::from_u64(S, 0xF00D_0000)),
                },
                target: Id::from_u64(S, target),
                level,
                past_hole: level % 2 == 0,
                exclude: None,
                hops,
                dist,
                visited: (0..nvis).collect(),
                local_branch: false,
                trace: None,
            };
            let d = decode_routed(encode_routed(&m)).expect("round-trips");
            prop_assert_eq!(d.target, m.target);
            prop_assert_eq!(d.level, m.level);
            prop_assert_eq!(d.hops, m.hops);
            prop_assert_eq!(d.dist.to_bits(), m.dist.to_bits());
            prop_assert_eq!(d.visited, m.visited);
        }
    }
}
