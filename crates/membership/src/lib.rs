//! # tapestry-membership — dynamic-membership admission at scale
//!
//! The paper's §4 insertion algorithm pays one acknowledged multicast per
//! join. Each wave covers `G(α)` for `α` = the GCP of insertee and
//! surrogate — usually a handful of nodes in a healthy mesh, but up to
//! the *whole network* when churn degrades Property 1 far enough that
//! surrogate routing terminates early and `α` collapses toward ε. Either
//! way, joins arriving close together each paid their own wave.
//!
//! This crate makes join admission a first-class subsystem:
//!
//! * [`JoinCoalescer`] — batches joins sharing a coalescing window into a
//!   **single** acknowledged-multicast wave carrying the whole insertee
//!   set. The correctness argument is the paper's own §4.4
//!   simultaneous-insertion machinery (Fig. 11): insertees are pinned
//!   for the wave's duration, concurrent insertees are reported through
//!   held watch lists, and every insertee still hears `SendID` from
//!   exactly the recipients a wave of its own would have reached (each
//!   carries its own coverage prefix inside the shared wave). A solo
//!   join is a wave of one, so a batch of size 1 reproduces it
//!   bit-for-bit (see the byte-compare test in
//!   `tests/batch_equivalence.rs`).
//! * [`BatchPolicy`] — the batching window, batch-size cap and readiness
//!   deadline. Under `BatchPolicy::disabled()` every join is a solo join.
//! * [`cost`] — join-cost accounting over the `membership.join.messages` counter
//!   that `tapestry-core` threads through the Figs. 4/7/8/11 protocol
//!   messages, plus the churn sizing rule that replaces the old
//!   hard-coded "churn only at toy sizes" ceiling with a join budget
//!   derived from *measured* mean messages/join.
//!
//! A wave is the paper's exact §4.1 multicast: every recipient forwards
//! every branch, so a wave reaching `k` nodes is a spanning tree of
//! `k − 1` edges (Theorem 5). Coalescing is the one lever on the number
//! of waves, and it does not lower join traffic. At seed 42 the committed
//! `BENCH_scale.json` reads, batched vs solo:
//!
//! | metric           | 1k nodes           | 25k nodes            |
//! |------------------|--------------------|----------------------|
//! | `join_msgs_mean` | 90.517 vs 89.902   | 218.843 vs 218.594   |
//! | `waves`          | 14 vs 61           | 25 vs 1 523          |
//! | `ops_lost`       | 9 vs 26            | 33 vs 39             |

#![forbid(unsafe_code)]

pub mod coalescer;
pub mod cost;

pub use coalescer::{BatchPolicy, CoalescerOutcome, JoinCoalescer};
pub use cost::{churn_join_budget, mean_messages_per_join};
