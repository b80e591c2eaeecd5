//! Keeping objects available during insertion (§4.3, Fig. 10).

use crate::messages::{Msg, OpId, RoutedMsg, Timer};
use crate::node::{NodeStatus, TapestryNode};
use crate::refs::NodeRef;
use tapestry_id::Guid;
use tapestry_sim::Ctx;
use tapestry_trace::metrics;

impl TapestryNode {
    /// A locate terminated at this node (its root) without finding a
    /// pointer — the `ObjectNotFound` handler of Fig. 10.
    ///
    /// * If we are still inserting, requests for objects we do not (yet)
    ///   have are bounced to the pre-insertion surrogate, routing "as if
    ///   we did not know about ourselves". The surrogate either has the
    ///   pointer (transfers keep the old root serving until acknowledged)
    ///   or the object does not exist.
    /// * Otherwise the object is genuinely unpublished (or its path lost
    ///   a pointer to churn): report failure to the origin.
    ///
    /// Loops are prevented by the visited list in the message header,
    /// exactly as §4.3 prescribes.
    pub(crate) fn locate_not_found(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        mut m: Box<RoutedMsg>,
        _guid: Guid,
        origin: NodeRef,
        op: OpId,
    ) {
        if self.status == NodeStatus::Inserting {
            if let Some(s) = self.insert.as_ref().and_then(|i| i.surrogate) {
                if s.idx != self.me.idx && !m.visited.contains(s.idx) {
                    metrics::AVAILABILITY_BOUNCE_TO_SURROGATE.inc(ctx);
                    m.level = 0;
                    m.exclude = Some(self.me.idx);
                    m.hops += 1;
                    m.dist += ctx.distance_to(s.idx);
                    m.visited.push(self.me.idx);
                    ctx.send(s.idx, Msg::Routed(m));
                    return;
                }
            }
        }
        metrics::LOCATE_NOT_FOUND.inc(ctx);
        ctx.send(
            origin.idx,
            Msg::LocateDone { op, server: None, hops: m.hops, dist: m.dist, reached_root: true },
        );
    }
}
