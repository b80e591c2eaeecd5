//! Radix-`b` digit-string identifiers for the Tapestry object-location
//! system (Hildrum, Kubiatowicz, Rao & Zhao, SPAA 2002).
//!
//! Tapestry names every node and object with a string of digits drawn from
//! an alphabet of radix `b` (the paper uses base 16). Routing resolves one
//! digit per hop, so the whole system is built on a small algebra of digit
//! strings: shared prefixes, per-level digits, and pseudo-random mappings
//! from object GUIDs to root identifiers ([`map_roots`]).
//!
//! This crate is allocation-free in all hot paths: an [`Id`] is one
//! packed 64-bit word of digits plus a length and a radix (ten bytes),
//! and comparing, indexing or finding the shared prefix of two names is
//! a handful of word operations.

#![forbid(unsafe_code)]

mod guid;
mod hex;
mod id;
mod maproots;
#[cfg(test)]
mod model;
mod prefix;
mod space;

pub use guid::Guid;
pub use hex::parse_digit;
pub use id::Id;
pub use maproots::{map_roots, root_id, splitmix64};
pub use prefix::Prefix;
pub use space::IdSpace;

/// Maximum number of digits an [`Id`] can hold (fewer above base 16 —
/// see [`IdSpace::try_new`]).
///
/// 16 base-16 digits give a 64-bit namespace, far beyond what any
/// laptop-scale simulation needs; the paper's own deployment used 40-digit
/// base-16 names, but all algorithms depend only on `log_b n` digits being
/// distinct.
pub const MAX_DIGITS: usize = 16;
