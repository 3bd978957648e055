//! Congestion-aware shortest-path routing over the ADG network (§IV-C:
//! "route this instruction's operands and dependences to the network using
//! Dijkstra's algorithm").
//!
//! The search runs over *edges* rather than nodes so that each switch's
//! routing-connectivity matrix (§III-A: "describes which inputs can connect
//! to which outputs") can be honored per traversal.
//!
//! # A\* that returns Dijkstra's path
//!
//! [`Router::route`] is A\*: a frontier entry for edge `e = (u → v)` reached
//! at cost `g` is keyed by `(f, g, e)` with `f = g + h(v)`, where `h(v)` is
//! the hop count from `v` to the target over hops a route may take (a
//! backward BFS from the target that continues only through passable nodes,
//! ignoring switch matrices and congestion). Every step costs at least 1,
//! so `h` is admissible and consistent; an edge whose head cannot reach the
//! target at all is never pushed. The path it returns is the one
//! Dijkstra — the same loop keyed by `(g, e)` — returns, not merely one of
//! equal cost (ties on `e` go to the higher index, as they always have):
//!
//! - All in-edges of a node share one `h`, so among themselves they pop in
//!   Dijkstra's `(g, e)` order, and each out-edge's predecessor is the
//!   first of them to reach it at the least cost in both searches.
//! - `g` rises strictly along a predecessor chain and `h` is consistent, so
//!   every edge on the chain has a strictly smaller `(f, g)` key than any
//!   entry it could tie with further along: nothing popped later can
//!   relabel it. (Keyed by `(f, e)` alone, ties on `f` would break this;
//!   the oracle test catches it.)
//! - Edges into the target have `h = 0`, so they pop in `(g, e)` order
//!   among everything else, and the first accepted final pop is the one
//!   Dijkstra's first accepted final pop would be.
//!
//! The argument needs exact sums: `g + h` must not round. So the bound is
//! used only when the congestion weight is a finite non-negative integer —
//! every step cost and every `g` is then an integer (the scheduler's default
//! and the explorer's weight, 100, are). For any other weight `h = 0`, no
//! edge is pruned, and the same loop is Dijkstra. The `#[cfg(test)]`
//! `route_reference` keeps the drained Dijkstra as the oracle.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use dsagen_adg::{Adg, EdgeId, NodeId, NodeKind, Routing, Scheduling};

/// Maximum hops a single route may take (guards against degenerate paths).
const MAX_HOPS: usize = 64;

/// [`Router::bounds`] entry for a node that cannot reach the target.
const UNREACHABLE: u16 = u16::MAX;

/// A candidate in the search frontier: the last edge taken, and the node
/// it arrives at, reached for `cost` with A\* key `f` (`cost` plus the
/// bound at `at`).
#[derive(Debug)]
struct Frontier {
    f: f64,
    cost: f64,
    edge: EdgeId,
    hops: usize,
    at: NodeId,
}

// Equality is the order's: a `BinaryHeap` assumes `a == b` exactly when
// `a.cmp(&b)` is `Equal`, and the order ignores `hops` and `at`.
impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Frontier {}

impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (f, cost); among equal keys the higher edge index pops
        // first.
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal))
            .then_with(|| self.edge.index().cmp(&other.edge.index()))
    }
}

impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Whether a node may appear in the *interior* of a route. Values travel
/// through switches, delay FIFOs, and sync elements; PEs, memories, and the
/// control core terminate routes.
fn passable(kind: &NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::Switch(_) | NodeKind::Delay(_) | NodeKind::Sync(_)
    )
}

/// Whether a value may traverse the hop `u → v` under the execution-model
/// composition rules (§III-B): dynamically-timed outputs may not feed
/// elements requiring static timing, except through sync elements.
fn hop_legal(adg: &Adg, u: NodeId, v: NodeId) -> bool {
    let (Ok(su), Ok(sv)) = (adg.kind(u), adg.kind(v)) else {
        return false;
    };
    match (su.output_timing(), sv.input_tolerance()) {
        (Scheduling::Dynamic, Scheduling::Static) => matches!(su, NodeKind::Sync(_)),
        _ => true,
    }
}

/// Whether continuing from incoming edge `e_in` to outgoing edge `e_out`
/// through their shared node is permitted by that node's routing matrix
/// (switches only; other passables route freely).
fn turn_legal(adg: &Adg, e_in: EdgeId, e_out: EdgeId) -> bool {
    let Some(edge_in) = adg.edge(e_in) else {
        return false;
    };
    match adg.kind(edge_in.dst) {
        Ok(NodeKind::Switch(sw)) => {
            let (Some(ip), Some(op)) = (adg.input_port_of(e_in), adg.output_port_of(e_out))
            else {
                return false;
            };
            sw.routing.allows(ip, op)
        }
        _ => true,
    }
}

/// Whether `path` is still a legal route starting at `src` under the
/// current ADG: the edges chain head-to-tail, interior nodes are passable,
/// every hop obeys the §III-B timing rules, and every switch's routing
/// matrix permits the turn taken through it.
///
/// Schedule repair uses this after fault injection: a stuck switch does
/// not *remove* any edge, but it can forbid the turn an existing route
/// took, so route validity must be re-checked semantically, not just
/// structurally.
#[must_use]
pub(crate) fn path_legal(adg: &Adg, src: NodeId, path: &[EdgeId]) -> bool {
    let mut cur = src;
    let mut prev: Option<EdgeId> = None;
    for (i, &eid) in path.iter().enumerate() {
        let Some(e) = adg.edge(eid) else {
            return false;
        };
        if e.src != cur || !hop_legal(adg, e.src, e.dst) {
            return false;
        }
        if let Some(p) = prev {
            if !turn_legal(adg, p, eid) {
                return false;
            }
        }
        // Interior nodes must be passable (the final dst is the route's
        // terminal and may be a PE or memory).
        if i + 1 < path.len() {
            match adg.kind(e.dst) {
                Ok(kind) if passable(kind) => {}
                _ => return false,
            }
        }
        cur = e.dst;
        prev = Some(eid);
    }
    true
}

/// Finds the cheapest legal route from `from` to `to`.
///
/// Edge cost is `1 + congestion_weight · usage(edge)` (exactly 1 on an
/// unused link, whatever the weight), so already-busy links are avoided but
/// never forbidden — the scheduler tolerates overutilization during search
/// and prices it in the objective (§IV-C).
/// Routes honor switch routing matrices and the §III-B timing rules.
///
/// Returns the route as a sequence of ADG edge ids, or `None` when no legal
/// path exists. A route between co-located entities is the empty sequence.
///
/// This is [`Router::route`] on a fresh router; the scheduler's search keeps
/// one router for all its calls.
#[must_use]
pub fn route(
    adg: &Adg,
    from: NodeId,
    to: NodeId,
    usage: impl Fn(EdgeId) -> u32,
    congestion_weight: f64,
) -> Option<Vec<EdgeId>> {
    Router::new(adg).route(from, to, usage, congestion_weight)
}

/// One out-hop of a node, flattened from the ADG so the router's inner loop
/// reads a slice instead of asking the graph for node kinds per hop.
#[derive(Debug, Clone, Copy)]
struct Hop {
    edge: EdgeId,
    dst: NodeId,
    /// `dst` may appear in the interior of a route.
    passable: bool,
    /// The hop obeys the §III-B timing rules.
    legal: bool,
}

/// A node's out-hops as a span of `Router::hops`, in `Adg::out_edges` order —
/// so a hop's position in the span is its output-port index.
#[derive(Debug, Clone, Copy)]
struct NodeHops<'a> {
    start: u32,
    len: u32,
    /// The routing matrix turns through this node must obey (switches that
    /// are not full crossbars; everything else routes freely).
    matrix: Option<&'a Routing>,
}

/// What the search knows about reaching an edge; meaningful only while
/// `stamp` equals the router's current generation.
#[derive(Debug, Clone, Copy)]
struct Label {
    stamp: u32,
    dist: f64,
    pred: Option<EdgeId>,
}

/// What the objective prices about one node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// A PE with `slots` instruction slots, statically scheduled when
    /// `fixed`.
    Pe { slots: u32, fixed: bool },
    /// A sync element with `lanes` vector lanes.
    Sync { lanes: u8 },
    /// A memory serving `streams` concurrent streams.
    Memory { streams: u8 },
    /// Anything else, or a slot the fabric does not have.
    Other,
}

/// The search's dense view of an ADG's resources, read by the objective
/// instead of asking the graph per entity and per evaluation: each node
/// slot's [`Unit`] and each edge slot's delay depth.
#[derive(Debug)]
pub(crate) struct Fabric<'a> {
    pub(crate) adg: &'a Adg,
    units: Vec<Unit>,
    /// Per edge slot: the depth of the delay element the edge enters (0 when
    /// it enters anything else).
    delays: Vec<u8>,
}

impl<'a> Fabric<'a> {
    pub(crate) fn new(adg: &'a Adg) -> Self {
        let mut units = vec![Unit::Other; adg.node_slots()];
        let mut delays = vec![0u8; adg.edge_slots()];
        for node in adg.nodes() {
            units[node.id().index()] = match &node.kind {
                NodeKind::Pe(pe) => Unit::Pe {
                    slots: pe.sharing.instruction_slots(),
                    fixed: pe.scheduling == Scheduling::Static,
                },
                NodeKind::Sync(sy) => Unit::Sync { lanes: sy.lanes },
                NodeKind::Memory(spec) => Unit::Memory { streams: spec.num_streams },
                NodeKind::Delay(d) => {
                    for edge in adg.in_edges(node.id()) {
                        delays[edge.id().index()] = d.depth;
                    }
                    continue;
                }
                _ => continue,
            };
        }
        Fabric { adg, units, delays }
    }

    /// What `node` is, as far as the objective cares.
    pub(crate) fn unit(&self, node: NodeId) -> Unit {
        self.units.get(node.index()).copied().unwrap_or(Unit::Other)
    }

    /// Total configurable delay capacity (cycles) of the delay elements
    /// along `route` — the budget available for pipeline balancing
    /// (§III-B).
    pub(crate) fn delay_capacity(&self, route: &[EdgeId]) -> u32 {
        route
            .iter()
            .map(|e| u32::from(self.delays.get(e.index()).copied().unwrap_or(0)))
            .sum()
    }
}

/// Congestion-aware A\* over one ADG, with everything that can outlive a
/// single query kept: the flattened graph (each node flattened the first
/// time a query expands it), generation-stamped per-edge labels sized once
/// from [`Adg::edge_slots`], the frontier heap, and the hop bound to each
/// target it has been asked for. It also holds the search's [`Fabric`], so
/// the router and the objective share one view of the ADG.
#[derive(Debug)]
pub(crate) struct Router<'a> {
    adg: &'a Adg,
    /// Built on first use: a bare [`route`] call never reads it.
    fabric: OnceCell<Fabric<'a>>,
    /// Per node slot; `None` until a query first expands the node.
    nodes: Vec<Option<NodeHops<'a>>>,
    hops: Vec<Hop>,
    labels: Vec<Label>,
    generation: u32,
    heap: BinaryHeap<Frontier>,
    /// Per target node slot: hops from every node to it (`UNREACHABLE` when
    /// none), built the first time a query needs it.
    bounds: Vec<Option<Box<[u16]>>>,
    /// Frontier entries popped over the router's life.
    pops: u64,
}

impl<'a> Router<'a> {
    pub(crate) fn new(adg: &'a Adg) -> Self {
        let unreached = Label { stamp: 0, dist: f64::INFINITY, pred: None };
        Router {
            adg,
            fabric: OnceCell::new(),
            nodes: vec![None; adg.node_slots()],
            hops: Vec::new(),
            labels: vec![unreached; adg.edge_slots()],
            generation: 0,
            heap: BinaryHeap::new(),
            bounds: vec![None; adg.node_slots()],
            pops: 0,
        }
    }

    /// The search's view of the fabric's resources.
    pub(crate) fn fabric(&self) -> &Fabric<'a> {
        self.fabric.get_or_init(|| Fabric::new(self.adg))
    }

    /// Frontier entries popped by every query so far.
    pub(crate) fn pops(&self) -> u64 {
        self.pops
    }

    /// The out-hops of `node`, flattened on first use.
    fn flatten(&mut self, node: NodeId) -> NodeHops<'a> {
        let adg = self.adg;
        match self.nodes.get(node.index()) {
            Some(Some(known)) => return *known,
            Some(None) => {}
            None => return NodeHops { start: 0, len: 0, matrix: None }, // not in this graph
        }
        let start = self.hops.len();
        self.hops.extend(adg.out_edges(node).map(|edge| Hop {
            edge: edge.id(),
            dst: edge.dst,
            passable: adg.kind(edge.dst).is_ok_and(passable),
            legal: hop_legal(adg, node, edge.dst),
        }));
        let flat = NodeHops {
            start: start as u32,
            len: (self.hops.len() - start) as u32,
            matrix: match adg.kind(node) {
                Ok(NodeKind::Switch(sw)) if !matches!(sw.routing, Routing::FullCrossbar) => {
                    Some(&sw.routing)
                }
                _ => None,
            },
        };
        self.nodes[node.index()] = Some(flat);
        flat
    }

    /// Hops from every node slot to `to` over hops a route may take — legal
    /// under §III-B, continuing only through passable nodes — by a backward
    /// BFS; switch matrices are ignored, so it never overestimates.
    fn bound_to(&self, to: NodeId) -> Box<[u16]> {
        let adg = self.adg;
        let mut bound = vec![UNREACHABLE; adg.node_slots()].into_boxed_slice();
        let mut queue = VecDeque::from([to]);
        bound[to.index()] = 0;
        while let Some(x) = queue.pop_front() {
            if x != to && !adg.kind(x).is_ok_and(passable) {
                continue; // a route ends here; it cannot pass through
            }
            let next = bound[x.index()].saturating_add(1);
            for edge in adg.in_edges(x) {
                let w = edge.src;
                if bound[w.index()] == UNREACHABLE && hop_legal(adg, w, x) {
                    bound[w.index()] = next;
                    queue.push_back(w);
                }
            }
        }
        bound
    }

    /// [`route`], reusing this router's tables.
    ///
    /// The search stops at the first accepted pop whose edge ends at `to`
    /// rather than draining the heap, and returns what draining it would:
    /// with `congestion_weight ≥ 0` every step costs ≥ 1, so accepted pops
    /// are non-decreasing in key and a drained search — which replaces its
    /// best final edge only on *strictly* lower cost — keeps exactly that
    /// first one (final edges are keyed by their cost alone). Every edge on
    /// its predecessor chain was popped earlier at its final distance, and a
    /// relaxation needs `ncost < dist`, which no later pop can produce, so
    /// the chain cannot be rewritten afterwards either. The heap's order is
    /// total on (key, cost, edge index) and one edge is never pushed twice
    /// at one cost, so heap internals cannot leak into the result. The
    /// module docs give why the bound leaves the path Dijkstra's.
    pub(crate) fn route(
        &mut self,
        from: NodeId,
        to: NodeId,
        usage: impl Fn(EdgeId) -> u32,
        congestion_weight: f64,
    ) -> Option<Vec<EdgeId>> {
        if from == to {
            return Some(Vec::new());
        }
        if to.index() >= self.nodes.len() {
            return None; // not in this graph
        }
        debug_assert!(congestion_weight >= 0.0, "the early exit needs steps that cost ≥ 1");
        let bound = if congestion_weight.is_finite() && congestion_weight.fract() == 0.0 {
            let bound = self.bounds[to.index()].take();
            Some(bound.unwrap_or_else(|| self.bound_to(to)))
        } else {
            None
        };
        let last = self.search(from, to, usage, congestion_weight, bound.as_deref());
        if bound.is_some() {
            self.bounds[to.index()] = bound;
        }

        // Walk predecessors back to the source.
        let mut path = vec![last?];
        while let Some(p) = self.labels[path[path.len() - 1].index()].pred {
            path.push(p);
        }
        path.reverse();
        debug_assert_eq!(self.adg.edge(path[0])?.src, from);
        Some(path)
    }

    /// The search loop of [`Router::route`] under `bound` (`h = 0` without
    /// one): the last edge of the route found, whose predecessor chain the
    /// labels now hold.
    fn search(
        &mut self,
        from: NodeId,
        to: NodeId,
        usage: impl Fn(EdgeId) -> u32,
        congestion_weight: f64,
        bound: Option<&[u16]>,
    ) -> Option<EdgeId> {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps from 2³² queries ago would read as current.
            self.labels.iter_mut().for_each(|l| l.stamp = 0);
            self.generation = 1;
        }
        let generation = self.generation;
        self.heap.clear();

        // An unused link costs exactly 1, even under an infinite weight.
        let step_cost = |eid: EdgeId| match usage(eid) {
            0 => 1.0,
            n => 1.0 + congestion_weight * f64::from(n),
        };

        // Expand `at`, reached over `via` (nothing, at the source) for `cost`
        // in `hops` hops; then move to the next accepted pop.
        let (mut at, mut via, mut cost, mut hops) = (from, None, 0.0, 0);
        loop {
            let flat = self.flatten(at);
            // The matrix a turn through `at` must obey, with the port it
            // enters by (none of either at the source).
            let turn = flat.matrix.zip(via).map(|(m, e_in)| (m, self.adg.input_port_of(e_in)));
            let span = flat.start as usize..(flat.start + flat.len) as usize;
            for (out_port, hop) in self.hops[span].iter().enumerate() {
                if !hop.legal || (hop.dst != to && !hop.passable) {
                    continue;
                }
                let h = match bound.map(|b| b[hop.dst.index()]) {
                    Some(UNREACHABLE) => continue, // `to` is out of reach from here
                    Some(h) => f64::from(h),
                    None => 0.0,
                };
                if let Some((matrix, in_port)) = turn {
                    if !in_port.is_some_and(|ip| matrix.allows(ip, out_port)) {
                        continue;
                    }
                }
                let ncost = cost + step_cost(hop.edge);
                let label = &mut self.labels[hop.edge.index()];
                if label.stamp != generation || ncost < label.dist {
                    *label = Label { stamp: generation, dist: ncost, pred: via };
                    self.heap.push(Frontier {
                        f: ncost + h,
                        cost: ncost,
                        edge: hop.edge,
                        hops: hops + 1,
                        at: hop.dst,
                    });
                }
            }
            let next = loop {
                let f = self.heap.pop()?;
                self.pops += 1;
                if f.cost <= self.labels[f.edge.index()].dist && f.hops < MAX_HOPS {
                    break f;
                }
            };
            if next.at == to {
                return Some(next.edge);
            }
            (at, via, cost, hops) = (next.at, Some(next.edge), next.cost, next.hops);
        }
    }
}

/// [`Fabric::delay_capacity`] asked of the graph, hop by hop: the oracle the
/// table is tested against.
#[cfg(test)]
pub(crate) fn delay_capacity(adg: &Adg, route: &[EdgeId]) -> u32 {
    route
        .iter()
        .filter_map(|e| adg.edge(*e))
        .filter_map(|e| match adg.kind(e.dst) {
            Ok(NodeKind::Delay(d)) => Some(u32::from(d.depth)),
            _ => None,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, OpSet, PeSpec, Routing, Sharing, SwitchSpec};

    use super::*;

    /// The router as it was before it learned to stop early and to use a
    /// bound: plain Dijkstra with a fresh set of tables per call, the graph
    /// asked per hop, and the heap drained to exhaustion. Kept as the oracle
    /// for [`Router::route`]; returns the route and the entries it popped.
    fn route_reference(
        adg: &Adg,
        from: NodeId,
        to: NodeId,
        usage: impl Fn(EdgeId) -> u32,
        congestion_weight: f64,
    ) -> (Option<Vec<EdgeId>>, u64) {
        if from == to {
            return (Some(Vec::new()), 0);
        }
        let slots = adg.edges().map(|e| e.id().index()).max().map_or(0, |m| m + 1);
        let mut dist = vec![f64::INFINITY; slots];
        let mut pred: Vec<Option<EdgeId>> = vec![None; slots];
        let mut heap = BinaryHeap::new();
        let mut best_final: Option<(f64, EdgeId)> = None;
        let mut pops = 0;

        let step_cost = |eid: EdgeId| match usage(eid) {
            0 => 1.0,
            n => 1.0 + congestion_weight * f64::from(n),
        };
        let entry = |cost: f64, edge: EdgeId, hops: usize, at: NodeId| Frontier {
            f: cost,
            cost,
            edge,
            hops,
            at,
        };

        // Seed: every legal first hop out of `from`.
        for edge in adg.out_edges(from) {
            let next = edge.dst;
            if next != to {
                let Ok(kind) = adg.kind(next) else { continue };
                if !passable(kind) {
                    continue;
                }
            }
            if !hop_legal(adg, from, next) {
                continue;
            }
            let c = step_cost(edge.id());
            if c < dist[edge.id().index()] {
                dist[edge.id().index()] = c;
                heap.push(entry(c, edge.id(), 1, next));
            }
        }

        while let Some(Frontier { cost, edge, hops, .. }) = heap.pop() {
            pops += 1;
            if cost > dist[edge.index()] || hops >= MAX_HOPS {
                continue;
            }
            let Some(cur) = adg.edge(edge) else { continue };
            if cur.dst == to {
                if best_final.is_none_or(|(bc, _)| cost < bc) {
                    best_final = Some((cost, edge));
                }
                continue;
            }
            for out in adg.out_edges(cur.dst) {
                let next = out.dst;
                if next != to {
                    let Ok(kind) = adg.kind(next) else { continue };
                    if !passable(kind) {
                        continue;
                    }
                }
                if !hop_legal(adg, cur.dst, next) || !turn_legal(adg, edge, out.id()) {
                    continue;
                }
                let ncost = cost + step_cost(out.id());
                if ncost < dist[out.id().index()] {
                    dist[out.id().index()] = ncost;
                    pred[out.id().index()] = Some(edge);
                    heap.push(entry(ncost, out.id(), hops + 1, next));
                }
            }
        }

        let Some((_, last)) = best_final else {
            return (None, pops);
        };
        let mut path = vec![last];
        let mut cur = last;
        while let Some(p) = pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        (Some(path), pops)
    }

    /// Route queries per fabric in the oracle tests: a release build (CI
    /// runs one) covers far more than a debug one.
    const ORACLE_PAIRS: usize = if cfg!(debug_assertions) { 200 } else { 5_000 };

    /// Every (from, to, usage, weight) query answered by one long-lived
    /// router — so a stale label, heap entry or bound from an earlier query
    /// would show — and by the reference, path for path. The router never
    /// pops more entries than the drained reference does. Weights cycle
    /// through integers (the bound is on) and fractions (it is off).
    fn assert_router_matches_reference(adg: &Adg, pairs: usize, seed: u64) -> (usize, usize) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = adg.nodes().map(|n| n.id()).collect();
        let mut router = Router::new(adg);
        let (mut routed, mut unreachable) = (0, 0);
        for pair in 0..pairs {
            let from = nodes[rng.gen_range(0..nodes.len())];
            let to = nodes[rng.gen_range(0..nodes.len())];
            let weight = [0.5, 1.0, 100.0, 0.3, 2.0][pair % 5];
            // Three usage maps: none, sparse random, and heavy exactly on
            // the path the empty fabric would give.
            let sparse: Vec<u32> = (0..adg.edge_slots())
                .map(|_| if rng.gen_bool(0.15) { rng.gen_range(1..4u32) } else { 0 })
                .collect();
            let free = route_reference(adg, from, to, |_| 0, weight).0.unwrap_or_default();
            let usages: [Box<dyn Fn(EdgeId) -> u32>; 3] = [
                Box::new(|_| 0),
                Box::new(|e| sparse[e.index()]),
                Box::new(|e| if free.contains(&e) { 7 } else { 0 }),
            ];
            for (which, usage) in usages.iter().enumerate() {
                let (expected, reference_pops) = route_reference(adg, from, to, usage, weight);
                let before = router.pops();
                let got = router.route(from, to, usage, weight);
                let what =
                    format!("{}: {from} -> {to}, usage map {which}, weight {weight}", adg.name());
                assert_eq!(got, expected, "{what}");
                let pops = router.pops() - before;
                assert!(pops <= reference_pops, "{what}: {pops} pops, reference {reference_pops}");
                match expected {
                    Some(_) => routed += 1,
                    None => unreachable += 1,
                }
            }
        }
        (routed, unreachable)
    }

    #[test]
    fn router_matches_the_exhaustive_reference_on_every_preset() {
        for adg in [
            presets::softbrain(),
            presets::spu(),
            presets::revel(),
            presets::dse_initial(),
        ] {
            let (routed, unreachable) =
                assert_router_matches_reference(&adg, ORACLE_PAIRS, 0xD5A6E4);
            assert!(routed > 0 && unreachable > 0, "{}: {routed}/{unreachable}", adg.name());
        }
    }

    #[test]
    fn router_matches_the_reference_through_stuck_switches() {
        use dsagen_faults::{inject, FaultKind, FaultPlan};
        let adg = presets::softbrain();
        let plan = (0..4).fold(FaultPlan::new(11), |plan, _| plan.with(FaultKind::StuckSwitch));
        let (stuck, report) = inject(&adg, &plan);
        let matrices = stuck
            .switches()
            .filter(|s| {
                matches!(stuck.kind(*s),
                    Ok(NodeKind::Switch(sw)) if matches!(sw.routing, Routing::Matrix(_)))
            })
            .count();
        assert!(report.any_applied() && matrices > 0, "no switch stuck");
        let (routed, unreachable) = assert_router_matches_reference(&stuck, ORACLE_PAIRS, 0x57AC);
        assert!(routed > 0 && unreachable > 0, "{routed}/{unreachable}");
    }

    #[test]
    fn router_matches_the_reference_through_a_routing_matrix() {
        for allow_second_output in [false, true] {
            let (adg, src, a, b) = matrix_fixture(allow_second_output);
            assert_router_matches_reference(&adg, 40, 7);
            // The forbidden turn itself, on a router that has already
            // answered the permitted one.
            let mut router = Router::new(&adg);
            for to in [a, b, a] {
                assert_eq!(
                    router.route(src, to, |_| 0, 0.5),
                    route_reference(&adg, src, to, |_| 0, 0.5).0
                );
            }
            assert_eq!(router.route(src, b, |_| 0, 0.5).is_some(), allow_second_output);
        }
    }

    #[test]
    fn an_infinite_weight_routes_an_empty_fabric_like_weight_zero() {
        for adg in [presets::softbrain(), presets::revel()] {
            let nodes: Vec<NodeId> = adg.nodes().map(|n| n.id()).collect();
            let mut routed = 0;
            for (i, &from) in nodes.iter().enumerate().step_by(7) {
                let to = nodes[(i * 13 + 5) % nodes.len()];
                let free = route(&adg, from, to, |_| 0, 0.0);
                assert_eq!(route(&adg, from, to, |_| 0, f64::INFINITY), free, "{from} -> {to}");
                routed += usize::from(free.is_some_and(|r| !r.is_empty()));
            }
            assert!(routed > 0, "{}", adg.name());
        }
    }

    #[test]
    fn routes_exist_between_ports_and_pes() {
        let adg = presets::softbrain();
        let sync = adg.syncs().next().unwrap();
        let pe = adg.pes().last().unwrap();
        let r = route(&adg, sync, pe, |_| 0, 0.5).expect("path must exist");
        assert!(!r.is_empty());
        // The route is contiguous: each edge's src is the previous dst.
        let mut cur = sync;
        for eid in &r {
            let e = adg.edge(*eid).unwrap();
            assert_eq!(e.src, cur);
            cur = e.dst;
        }
        assert_eq!(cur, pe);
    }

    #[test]
    fn same_node_route_is_empty() {
        let adg = presets::softbrain();
        let pe = adg.pes().next().unwrap();
        assert_eq!(route(&adg, pe, pe, |_| 0, 0.5), Some(Vec::new()));
    }

    #[test]
    fn congestion_diverts_routes() {
        let adg = presets::softbrain();
        let sync = adg.syncs().next().unwrap();
        let pe = adg.pes().nth(5).unwrap();
        let base = route(&adg, sync, pe, |_| 0, 0.5).unwrap();
        // Make the first route's edges expensive; a different route should
        // appear (or at least not be *more* expensive in base terms).
        let busy: std::collections::HashSet<_> = base.iter().copied().collect();
        let alt = route(&adg, sync, pe, |e| if busy.contains(&e) { 10 } else { 0 }, 1.0).unwrap();
        assert_ne!(base, alt);
    }

    #[test]
    fn no_route_through_pes() {
        let adg = presets::softbrain();
        // Any route's interior nodes must be switches/delays/syncs.
        let syncs: Vec<_> = adg.syncs().collect();
        let r = route(&adg, syncs[0], syncs[syncs.len() - 1], |_| 0, 0.5);
        if let Some(r) = r {
            for eid in &r[..r.len().saturating_sub(1)] {
                let e = adg.edge(*eid).unwrap();
                let kind = adg.kind(e.dst).unwrap();
                assert!(passable(kind), "route passes through {}", e.dst);
            }
        }
    }

    #[test]
    fn dynamic_to_static_requires_sync_on_revel() {
        let adg = presets::revel();
        // A dynamic PE (rows 2–3) routing to a static PE (rows 0–1) must
        // pass through a bridge sync element.
        let dyn_pe = adg
            .nodes()
            .find(|n| n.label.as_deref() == Some("pe3_0"))
            .unwrap()
            .id();
        let static_pe = adg
            .nodes()
            .find(|n| n.label.as_deref() == Some("pe0_0"))
            .unwrap()
            .id();
        if let Some(r) = route(&adg, dyn_pe, static_pe, |_| 0, 0.5) {
            let through_sync = r.iter().any(|eid| {
                let e = adg.edge(*eid).unwrap();
                matches!(adg.kind(e.dst), Ok(NodeKind::Sync(_)))
            });
            assert!(through_sync, "dynamic→static route must cross a sync");
        }
    }

    #[test]
    fn delay_capacity_counts_delay_nodes() {
        let adg = presets::softbrain();
        // Softbrain PEs have delay FIFOs on their inputs; a route ending at
        // a PE passes one.
        let sync = adg.syncs().next().unwrap();
        let pe = adg.pes().next().unwrap();
        let r = route(&adg, sync, pe, |_| 0, 0.5).unwrap();
        assert!(delay_capacity(&adg, &r) > 0);
    }

    /// A three-node chain `src_pe → switch → {a, b}` where the switch's
    /// routing matrix only allows its first input to reach output 0.
    fn matrix_fixture(allow_second_output: bool) -> (dsagen_adg::Adg, NodeId, NodeId, NodeId) {
        let mut adg = dsagen_adg::Adg::new("matrix");
        let pe_spec = PeSpec::new(
            dsagen_adg::Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        );
        let src = adg.add_pe(pe_spec.clone());
        let matrix = Routing::Matrix(vec![vec![true, allow_second_output]]);
        let sw = adg.add_switch(SwitchSpec::new(BitWidth::B64).with_routing(matrix));
        let a = adg.add_pe(pe_spec.clone());
        let b = adg.add_pe(pe_spec);
        adg.add_link(src, sw).unwrap();
        adg.add_link(sw, a).unwrap(); // output port 0
        adg.add_link(sw, b).unwrap(); // output port 1
        (adg, src, a, b)
    }

    #[test]
    fn routing_matrix_permits_allowed_turn() {
        let (adg, src, a, _) = matrix_fixture(false);
        assert!(route(&adg, src, a, |_| 0, 0.5).is_some());
    }

    #[test]
    fn routing_matrix_blocks_forbidden_turn() {
        let (adg, src, _, b) = matrix_fixture(false);
        assert_eq!(route(&adg, src, b, |_| 0, 0.5), None);
        // With the matrix opened up, the same turn routes.
        let (adg, src, _, b) = matrix_fixture(true);
        assert!(route(&adg, src, b, |_| 0, 0.5).is_some());
    }
}
