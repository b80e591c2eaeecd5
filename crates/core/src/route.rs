//! Surrogate routing, publication and location (§2.2–§2.3, Figs. 2–3).

use crate::messages::{Msg, OpId, RoutedKind, RoutedMsg, Timer, Visited};
use crate::network::LocateResult;
use crate::node::TapestryNode;
use crate::object_store::PtrEntry;
use crate::refs::NodeRef;
use crate::routing_table::Hop;
use rand::Rng;
use tapestry_id::{root_id, Guid};
use tapestry_sim::{Ctx, NodeIdx, TraceRecord};
use tapestry_trace::{metrics, TraceId};

impl TapestryNode {
    /// Application publish (Fig. 2): store the replica locally, deposit
    /// our own pointer, and route a publish toward every root.
    pub(crate) fn app_publish(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, guid: Guid) {
        self.store.store_local(guid);
        self.publish_now(ctx, guid);
    }

    /// Send the publish messages for a locally stored object (initial
    /// publication and every explicit republish: `Leaving`, repair).
    pub(crate) fn publish_now(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, guid: Guid) {
        self.store.deposit(guid, PtrEntry { server: self.me, last_hop: None, is_root: false });
        for i in 0..self.cfg.roots_per_object {
            let m = Box::new(RoutedMsg {
                kind: RoutedKind::Publish { guid, server: self.me },
                target: root_id(self.cfg.space, guid, i),
                level: 0,
                past_hole: false,
                exclude: None,
                hops: 0,
                dist: 0.0,
                visited: Visited::default(),
                local_branch: false,
                trace: None,
            });
            self.handle_routed(ctx, None, m);
        }
        if self.cfg.stub_latency_threshold > 0.0 {
            // §6.3: spawn a local-branch publish that roots inside the stub.
            let m = Box::new(RoutedMsg {
                kind: RoutedKind::Publish { guid, server: self.me },
                target: root_id(self.cfg.space, guid, 0),
                level: 0,
                past_hole: false,
                exclude: None,
                hops: 0,
                dist: 0.0,
                visited: Visited::default(),
                local_branch: true,
                trace: None,
            });
            self.handle_routed(ctx, None, m);
        }
    }

    /// Application locate (Fig. 3): route toward a randomly chosen root,
    /// diverting at the first pointer encountered. `trace` is the hop
    /// trace identity when the driver sampled this locate.
    pub(crate) fn app_locate(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        guid: Guid,
        trace: Option<TraceId>,
    ) {
        let op = self.next_op();
        let root_index = if self.cfg.roots_per_object > 1 {
            self.rng.gen_range(0..self.cfg.roots_per_object)
        } else {
            0
        };
        debug_assert!(self.pending_locates.last().is_none_or(|&(last, ..)| last < op));
        self.pending_locates.push((op, guid, ctx.now));
        let m = Box::new(RoutedMsg {
            kind: RoutedKind::Locate { guid, origin: self.me, op, root_index },
            target: root_id(self.cfg.space, guid, root_index),
            level: 0,
            past_hole: false,
            exclude: None,
            hops: 0,
            dist: 0.0,
            visited: Visited::default(),
            // §6.3: try to resolve within the stub first.
            local_branch: self.cfg.stub_latency_threshold > 0.0,
            trace,
        });
        self.handle_routed(ctx, None, m);
    }

    /// Core routed-message processing: one hop of surrogate routing, with
    /// the per-kind side effects (pointer check / deposit / surrogate
    /// discovery).
    pub(crate) fn handle_routed(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        prev: Option<NodeIdx>,
        m: Box<RoutedMsg>,
    ) {
        let step = self.route_step(&m);
        match m.kind {
            RoutedKind::Locate { guid, origin, op, .. } => {
                // Check for an object pointer at every hop; divert to the
                // replica closest to the *current* node (§2.2).
                #[expect(
                    clippy::disallowed_methods,
                    reason = "store.lookup yields entries in deterministic store order and min_by \
                              keeps the first of equals, so ties resolve identically on every run"
                )]
                let best = self
                    .store
                    .lookup(guid)
                    .min_by(|a, b| {
                        ctx.distance_to(a.server.idx)
                            .partial_cmp(&ctx.distance_to(b.server.idx))
                            .unwrap()
                    })
                    .copied();
                if let Some(e) = best {
                    let extra = ctx.distance_to(e.server.idx);
                    let hops = m.hops + u32::from(e.server.idx != self.me.idx);
                    metrics::LOCATE_FOUND.inc(ctx);
                    ctx.send(
                        origin.idx,
                        Msg::LocateDone {
                            op,
                            server: Some(e.server),
                            hops,
                            dist: m.dist + extra,
                            reached_root: matches!(step, Step::Terminal),
                        },
                    );
                    return;
                }
                match step {
                    Step::Forward(p, lvl, ph) => self.forward(ctx, m, p, lvl, ph),
                    Step::LocalRoot => self.resume_global(ctx, m),
                    Step::Terminal => self.locate_not_found(ctx, m, guid, origin, op),
                }
            }
            RoutedKind::Publish { guid, server } => {
                let is_root = matches!(step, Step::Terminal);
                self.store.deposit(guid, PtrEntry { server, last_hop: prev, is_root });
                match step {
                    Step::Forward(p, lvl, ph) => self.forward(ctx, m, p, lvl, ph),
                    Step::LocalRoot | Step::Terminal => {
                        metrics::PUBLISH_ROOTED.inc(ctx);
                    }
                }
            }
            RoutedKind::FindSurrogate { reply_to, op } => match step {
                Step::Forward(p, lvl, ph) => {
                    metrics::JOIN_MESSAGES.inc(ctx);
                    self.forward(ctx, m, p, lvl, ph)
                }
                Step::LocalRoot | Step::Terminal => {
                    metrics::JOIN_MESSAGES.inc(ctx);
                    ctx.send(reply_to.idx, Msg::SurrogateIs { op, surrogate: self.me });
                }
            },
        }
    }

    /// Decide the next hop for a routed message at this node, under the
    /// configured §2.3 routing scheme.
    fn route_step(&self, m: &RoutedMsg) -> Step {
        if m.local_branch {
            return match self.next_hop_local(&m.target, m.level) {
                Some((p, lvl)) if !m.visited.contains(p.idx) => Step::Forward(p, lvl, m.past_hole),
                _ => Step::LocalRoot,
            };
        }
        match self.route_next(&m.target, m.level, m.exclude, m.past_hole) {
            (Hop::Forward(p, lvl), ph) if !m.visited.contains(p.idx) => Step::Forward(p, lvl, ph),
            (Hop::Forward(..), _) => Step::Terminal, // loop guard (§4.3 header check)
            (Hop::Root, _) => Step::Terminal,
        }
    }

    /// Take one hop: update accounting headers and send. When the message
    /// carries a [`TraceId`] and tracing is on, one causal hop record
    /// `(level, digit, from, to, dist, cumulative dist)` lands in the
    /// engine's bounded collector — the raw material of per-hop stretch
    /// attribution and hop-count CDFs.
    fn forward(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        mut m: Box<RoutedMsg>,
        p: NodeRef,
        lvl: usize,
        past_hole: bool,
    ) {
        m.past_hole = past_hole;
        m.level = lvl;
        let d = ctx.distance_to(p.idx);
        m.dist += d;
        if let (Some(tid), true) = (m.trace, ctx.trace_enabled()) {
            ctx.trace(TraceRecord {
                trace: tid.raw(),
                kind: match m.kind {
                    RoutedKind::Locate { .. } => "locate",
                    RoutedKind::Publish { .. } => "publish",
                    RoutedKind::FindSurrogate { .. } => "join",
                },
                hop: m.hops,
                level: lvl as u32,
                digit: m.target.digit(lvl.saturating_sub(1)),
                from: self.me.idx,
                to: p.idx,
                dist: d,
                cum_dist: m.dist,
                at: ctx.now,
            });
        }
        m.hops += 1;
        m.visited.push(self.me.idx);
        metrics::ROUTE_HOPS.inc(ctx);
        ctx.send(p.idx, Msg::Routed(m));
    }

    /// §6.3: a local branch reached the stub-local root without resolving;
    /// resume wide-area routing from here ("resumes at that hop").
    fn resume_global(&mut self, ctx: &mut Ctx<'_, Msg, Timer>, mut m: Box<RoutedMsg>) {
        metrics::LOCALITY_RESUME_GLOBAL.inc(ctx);
        m.local_branch = false;
        m.level = 0;
        self.handle_routed(ctx, None, m);
    }

    /// Origin-side completion: record the result for the driver, and put
    /// this node on the engine's completion feed when the queue goes
    /// empty → non-empty (a node with a non-empty queue is already
    /// listed: `drain_results` empties every queue it unlists).
    pub(crate) fn on_locate_done(
        &mut self,
        ctx: &mut Ctx<'_, Msg, Timer>,
        op: OpId,
        server: Option<NodeRef>,
        hops: u32,
        dist: f64,
        reached_root: bool,
    ) {
        let Ok(at) = self.pending_locates.binary_search_by_key(&op, |&(op, ..)| op) else {
            return; // duplicate or forged completion
        };
        let (_, guid, issued_at) = self.pending_locates.remove(at);
        if self.pending_locates.is_empty() {
            self.pending_locates = Vec::new();
        }
        if self.locate_results.is_empty() {
            ctx.notify_driver();
        }
        self.locate_results.push(LocateResult {
            guid,
            op,
            server,
            hops,
            distance: dist,
            reached_root,
            issued_at,
            completed_at: ctx.now,
        });
    }
}

enum Step {
    Forward(NodeRef, usize, bool),
    /// Local branch terminated at the stub-local root (§6.3).
    LocalRoot,
    /// This node is the target's (global) root.
    Terminal,
}
