//! A deterministic discrete-event simulator for overlay networks.
//!
//! The paper evaluates its algorithms by counting **messages**, **hops**
//! and **network distance** (latency) — never wall-clock time on specific
//! hardware. This engine reproduces exactly that cost model:
//!
//! * every message between nodes `a` and `b` takes time proportional to
//!   the metric distance `d(a, b)` (plus a small fixed processing delay),
//! * every send is recorded in [`SimStats`],
//! * nodes are actors with `on_message` / `on_timer` handlers and may be
//!   added (insertion) or removed (voluntary/involuntary deletion) at any
//!   point, and
//! * runs are bit-for-bit reproducible: [`Engine::step`] dispatches one
//!   event at a time, ties in delivery time are broken by a global
//!   sequence number and all randomness is seeded upstream.

#![forbid(unsafe_code)]

mod engine;
mod histogram;
mod shard;
mod stats;
mod time;

pub use engine::{Actor, Ctx, Engine, NodeIdx, EVENT_KINDS, EXTERNAL};
pub use histogram::Histogram;
pub use shard::ShardedQueue;
pub use stats::{SimStats, Slot, TraceBuf, TraceRecord};
pub use time::SimTime;
