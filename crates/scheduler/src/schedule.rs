//! The schedule: placements, routes, and stream→memory bindings.

use std::collections::BTreeMap;

use dsagen_adg::{Adg, EdgeId, MemKind, NodeId, NodeKind};
use dsagen_dfg::{MemClass, StreamSource};

use crate::{Entity, EntityKind, Problem};

/// A (possibly partial) mapping of a compiled kernel onto an ADG.
///
/// Indices are positional against the [`Problem`] that minted the schedule:
/// `placement[i]` is entity `i`'s ADG node, `routes[j]` is virtual edge
/// `j`'s network path. Partial schedules are first-class — the repairing
/// scheduler starts from them (§V-A).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Entity placements.
    pub placement: Vec<Option<NodeId>>,
    /// Routed virtual edges: edge index → ADG edge path.
    pub routes: BTreeMap<usize, Vec<EdgeId>>,
}

impl Schedule {
    /// An empty schedule shaped for `problem`.
    #[must_use]
    pub fn empty(problem: &Problem<'_>) -> Self {
        Schedule {
            placement: vec![None; problem.entities.len()],
            routes: BTreeMap::new(),
        }
    }

    /// Whether every entity is placed and every edge routed.
    #[must_use]
    pub fn is_complete(&self, problem: &Problem<'_>) -> bool {
        self.placement.iter().all(Option::is_some)
            && problem.edges.iter().enumerate().all(|(i, _)| {
                self.routes.contains_key(&i)
            })
    }

    /// Unmaps entity `e`, dropping its placement and all incident routes.
    pub fn unplace(&mut self, problem: &Problem<'_>, e: usize) {
        self.placement[e] = None;
        for i in problem.incident(e) {
            self.routes.remove(i);
        }
    }

    /// Drops every placement and route that references hardware no longer
    /// present (or no longer compatible) in `problem.adg` — the first step
    /// of schedule repair after a DSE mutation (§V-A: "any aspect of the
    /// input program which used a deleted ADG component is also deleted
    /// from the schedule").
    ///
    /// Returns how many entities were invalidated.
    pub fn invalidate_removed(&mut self, problem: &Problem<'_>) -> usize {
        // Resize if the problem shape changed (defensive; same kernel keeps
        // the same shape).
        if self.placement.len() != problem.entities.len() {
            *self = Schedule::empty(problem);
            return problem.entities.len();
        }
        let adg = problem.adg;
        let mut dropped = 0;
        for (i, slot) in self.placement.iter_mut().enumerate() {
            let Some(node) = *slot else { continue };
            let still_ok = match adg.kind(node) {
                Err(_) => false,
                Ok(kind) => match &problem.entities[i].kind {
                    EntityKind::Op { .. } => match kind {
                        NodeKind::Pe(pe) => {
                            let e = &problem.entities[i];
                            e.opcode.is_none_or(|oc| pe.ops.contains(oc))
                                && (!e.needs_stream_join || pe.supports_stream_join())
                        }
                        _ => false,
                    },
                    EntityKind::InPort { .. } | EntityKind::OutPort { .. } => {
                        matches!(kind, NodeKind::Sync(_))
                    }
                },
            };
            if !still_ok {
                *slot = None;
                dropped += 1;
            }
        }
        // Routes: every ADG edge must still exist and endpoints must still
        // be placed where the route assumes.
        let placement = &self.placement;
        self.routes.retain(|idx, path| {
            let Some(vedge) = problem.edges.get(*idx) else {
                return false;
            };
            let (Some(mut cur), Some(dst)) = (
                placement.get(vedge.src).copied().flatten(),
                placement.get(vedge.dst).copied().flatten(),
            ) else {
                return false;
            };
            for eid in path.iter() {
                match adg.edge(*eid) {
                    Some(e) if e.src == cur => cur = e.dst,
                    _ => return false,
                }
            }
            cur == dst
        });
        dropped
    }

    /// Whether every placement and route *outside* `regions` is
    /// bit-identical between `self` and `other` — the placement-diff
    /// check behind the partial re-placement rung: a scoped repair may
    /// touch only the afflicted domain, and untouched domains'
    /// assignments must survive unchanged.
    #[must_use]
    pub fn agrees_outside(
        &self,
        problem: &Problem<'_>,
        other: &Schedule,
        regions: &std::collections::BTreeSet<usize>,
    ) -> bool {
        if self.placement.len() != other.placement.len() {
            return false;
        }
        for (i, ent) in problem.entities.iter().enumerate() {
            if !regions.contains(&ent.region()) && self.placement[i] != other.placement[i] {
                return false;
            }
        }
        for (idx, vedge) in problem.edges.iter().enumerate() {
            let region = problem
                .entities
                .get(vedge.src)
                .map(Entity::region)
                .unwrap_or(usize::MAX);
            if !regions.contains(&region) && self.routes.get(&idx) != other.routes.get(&idx) {
                return false;
            }
        }
        true
    }

    /// Usage count per ADG edge across all routes.
    #[must_use]
    pub fn edge_usage(&self) -> BTreeMap<EdgeId, u32> {
        let mut usage: BTreeMap<EdgeId, u32> = BTreeMap::new();
        for path in self.routes.values() {
            for e in path {
                *usage.entry(*e).or_insert(0) += 1;
            }
        }
        usage
    }

    /// Resolves every stream of every region to a memory node: fabric
    /// streams bind to a compatible memory adjacent to their port's sync
    /// element; controller-side index streams bind to the first memory of
    /// their class. Returns `(region, in/out, stream_port) → memory`.
    #[must_use]
    pub fn stream_memories(&self, problem: &Problem<'_>) -> BTreeMap<(usize, bool, usize), NodeId> {
        let adg = problem.adg;
        let mut out = BTreeMap::new();
        for (ei, entity) in problem.entities.iter().enumerate() {
            let (Some(sync), Some(mc)) = (self.placement[ei], entity.mem_class) else {
                continue;
            };
            let stream = match entity.kind {
                EntityKind::InPort { region, port } => (region, true, port),
                EntityKind::OutPort { region, port } => (region, false, port),
                EntityKind::Op { .. } => continue,
            };
            let adjacent = entity.adjacent_memory(adg, sync);
            if let Some(m) = adjacent.or_else(|| first_memory_of(adg, mc)) {
                out.insert(stream, m);
            }
        }
        // Controller-side index streams (not represented as entities).
        for (ri, region) in problem.kernel.regions.iter().enumerate() {
            for s in &region.in_streams {
                if !s.to_fabric {
                    if let StreamSource::Memory(mc) = s.source {
                        if let Some(m) = first_memory_of(adg, mc) {
                            out.insert((ri, true, s.port), m);
                        }
                    }
                }
            }
        }
        out
    }
}

/// The first memory of class `mc` in node order: where a stream binds when
/// no compatible memory is adjacent to its port.
pub(crate) fn first_memory_of(adg: &Adg, mc: MemClass) -> Option<NodeId> {
    adg.memories().find(|m| match adg.kind(*m) {
        Ok(NodeKind::Memory(spec)) => match mc {
            MemClass::MainMemory => spec.kind == MemKind::MainMemory,
            MemClass::Scratchpad => spec.kind == MemKind::Scratchpad,
        },
        _ => false,
    })
}

/// Which *values* (producing entities) each ADG link carries — the one
/// definition of link congestion, shared by the router's usage costs, the
/// rip-up and victim heuristics and the objective's network-overuse term.
///
/// Fan-out is free in hardware — a switch broadcasting one value to several
/// consumers uses each physical link once — so congestion is counted per
/// distinct value, not per route.
///
/// Invariant: `values[l]` lists `(v, n)` exactly when `n > 0` routes of
/// virtual edges produced by entity `v` cross link `l`, and `overuse` is
/// Σ over links of (distinct values − 1). [`LinkTable::of`] establishes it
/// from a bare schedule; the search keeps it in step through `insert` and
/// `remove` on every route edit instead of rebuilding it per routed edge.
#[derive(Debug)]
pub(crate) struct LinkTable {
    /// Indexed by [`EdgeId::index`].
    values: Vec<Carried>,
    overuse: usize,
}

/// The `(value, routes)` entries of one link, unordered. Most links carry
/// at most one value, which is kept inline; a link that has carried two
/// keeps its list (and its allocation) from then on.
#[derive(Debug, Clone, Default)]
enum Carried {
    #[default]
    Nothing,
    One((usize, u32)),
    Many(Vec<(usize, u32)>),
}

impl Carried {
    fn entries(&self) -> &[(usize, u32)] {
        match self {
            Carried::Nothing => &[],
            Carried::One(entry) => std::slice::from_ref(entry),
            Carried::Many(entries) => entries,
        }
    }

    fn clear(&mut self) {
        match self {
            Carried::Many(entries) => entries.clear(),
            _ => *self = Carried::Nothing,
        }
    }
}

impl LinkTable {
    /// The table of `schedule`'s routes (routes of virtual edges `problem`
    /// does not have are ignored, as everywhere else).
    pub(crate) fn of(problem: &Problem<'_>, schedule: &Schedule) -> Self {
        let mut table = LinkTable {
            values: vec![Carried::Nothing; problem.adg.edge_slots()],
            overuse: 0,
        };
        table.reset(problem, schedule);
        table
    }

    /// Makes this the table of `schedule`, keeping its allocations.
    pub(crate) fn reset(&mut self, problem: &Problem<'_>, schedule: &Schedule) {
        self.values.iter_mut().for_each(Carried::clear);
        self.overuse = 0;
        for (idx, path) in &schedule.routes {
            if let Some(vedge) = problem.edges.get(*idx) {
                self.insert(vedge.src, path);
            }
        }
    }

    /// Accounts for one more route of `value` along `path`.
    pub(crate) fn insert(&mut self, value: usize, path: &[EdgeId]) {
        for link in path {
            // A schedule may name links the fabric never had (`evaluate`
            // accepts any schedule); they are links like any other.
            if link.index() >= self.values.len() {
                self.values.resize(link.index() + 1, Carried::Nothing);
            }
            let carried = &mut self.values[link.index()];
            match carried {
                Carried::Nothing => *carried = Carried::One((value, 1)),
                Carried::One((v, routes)) if *v == value => *routes += 1,
                Carried::One(other) => {
                    *carried = Carried::Many(vec![*other, (value, 1)]);
                    self.overuse += 1;
                }
                Carried::Many(entries) => match entries.iter_mut().find(|(v, _)| *v == value) {
                    Some((_, routes)) => *routes += 1,
                    None => {
                        entries.push((value, 1));
                        self.overuse += usize::from(entries.len() > 1);
                    }
                },
            }
        }
    }

    /// Undoes one [`LinkTable::insert`] of the same `value` and `path`.
    pub(crate) fn remove(&mut self, value: usize, path: &[EdgeId]) {
        for link in path {
            let carried = &mut self.values[link.index()];
            match carried {
                Carried::One((v, routes)) if *v == value => {
                    *routes -= 1;
                    if *routes == 0 {
                        *carried = Carried::Nothing;
                    }
                }
                Carried::Many(entries) => {
                    let at = entries
                        .iter()
                        .position(|(v, _)| *v == value)
                        .expect("a removed route was inserted");
                    entries[at].1 -= 1;
                    if entries[at].1 == 0 {
                        self.overuse -= usize::from(entries.len() > 1);
                        entries.swap_remove(at);
                    }
                }
                _ => panic!("a removed route was inserted"),
            }
        }
    }

    /// How many distinct values other than `value` cross `link`: re-using a
    /// link that already carries this very value is free (broadcast), other
    /// values congest.
    pub(crate) fn others(&self, link: EdgeId, value: usize) -> u32 {
        self.values.get(link.index()).map_or(0, |carried| {
            carried.entries().iter().filter(|(v, _)| *v != value).count() as u32
        })
    }

    /// Whether `link` carries more than one distinct value.
    pub(crate) fn congested(&self, link: EdgeId) -> bool {
        self.values.get(link.index()).is_some_and(|carried| carried.entries().len() > 1)
    }

    /// Network overutilization: Σ over links of (distinct values − 1).
    pub(crate) fn overuse(&self) -> usize {
        self.overuse
    }

    /// The distinct values per link, sorted, for comparing two tables
    /// whatever order their edits arrived in.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn normalized(&self) -> (Vec<Vec<(usize, u32)>>, usize) {
        let mut values: Vec<Vec<(usize, u32)>> =
            self.values.iter().map(|carried| carried.entries().to_vec()).collect();
        values.iter_mut().for_each(|carried| carried.sort_unstable());
        while values.last().is_some_and(Vec::is_empty) {
            values.pop();
        }
        (values, self.overuse)
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };

    use super::*;

    fn problem_fixture(adg: &Adg) -> (dsagen_dfg::CompiledKernel, ()) {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 64, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(64), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        (
            compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap(),
            (),
        )
    }

    /// The definition [`LinkTable`] replaced, kept as its oracle: the
    /// distinct values per link, rebuilt from the routes.
    fn edge_values(schedule: &Schedule, problem: &Problem<'_>) -> BTreeMap<EdgeId, Vec<usize>> {
        let mut values: BTreeMap<EdgeId, Vec<usize>> = BTreeMap::new();
        for (idx, path) in &schedule.routes {
            let Some(vedge) = problem.edges.get(*idx) else {
                continue;
            };
            for e in path {
                let entry = values.entry(*e).or_default();
                if !entry.contains(&vedge.src) {
                    entry.push(vedge.src);
                }
            }
        }
        values
    }

    #[test]
    fn link_table_agrees_with_edge_values_through_edits() {
        let adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        let p = Problem::new(&adg, &ck);
        let (start, cfg) = (crate::Start::Empty, crate::SchedulerConfig::default());
        let tel = dsagen_telemetry::Telemetry::disabled();
        let mut s = crate::schedule(&adg, &ck, &start, &cfg, &tel)
            .expect("nothing is pinned")
            .schedule;
        // Pile every route's value onto route 0's links too, so some link
        // carries several values and one value twice; and name a virtual
        // edge the problem does not have.
        let shared = s.routes[&0].clone();
        for path in s.routes.values_mut().skip(1) {
            path.extend(&shared);
        }
        s.routes.insert(p.edges.len() + 3, shared.clone());
        let mut table = LinkTable::of(&p, &s);
        let check = |table: &LinkTable, s: &Schedule| {
            let oracle = edge_values(s, &p);
            for link in adg.edges().map(dsagen_adg::Edge::id) {
                let carried = oracle.get(&link).map_or(&[][..], Vec::as_slice);
                assert_eq!(table.congested(link), carried.len() > 1, "{link}");
                for v in 0..p.entities.len() {
                    let others = carried.iter().filter(|c| **c != v).count() as u32;
                    assert_eq!(table.others(link, v), others, "{link} value {v}");
                }
            }
            let overuse: usize = oracle.values().map(|c| c.len() - 1).sum();
            assert_eq!(table.overuse(), overuse);
            assert_eq!(table.normalized(), LinkTable::of(&p, s).normalized());
        };
        check(&table, &s);
        assert!(table.overuse() > 0, "the fixture must congest something");
        // Remove the routes one by one, then put them back in reverse.
        let routed: Vec<usize> = s.routes.keys().copied().filter(|i| *i < p.edges.len()).collect();
        let mut taken = Vec::new();
        for i in routed {
            let path = s.routes.remove(&i).unwrap();
            table.remove(p.edges[i].src, &path);
            check(&table, &s);
            taken.push((i, path));
        }
        assert_eq!(table.overuse(), 0);
        for (i, path) in taken.into_iter().rev() {
            table.insert(p.edges[i].src, &path);
            s.routes.insert(i, path);
            check(&table, &s);
        }
    }

    #[test]
    fn empty_schedule_is_incomplete() {
        let adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        let p = Problem::new(&adg, &ck);
        let s = Schedule::empty(&p);
        assert!(!s.is_complete(&p));
    }

    #[test]
    fn unplace_drops_incident_routes() {
        let adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        let p = Problem::new(&adg, &ck);
        let mut s = Schedule::empty(&p);
        s.placement[0] = Some(adg.syncs().next().unwrap());
        s.routes.insert(0, vec![]);
        // Edge 0 has src or dst 0? Find an edge touching entity 0.
        let touching: Vec<usize> = p
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.src == 0 || e.dst == 0)
            .map(|(i, _)| i)
            .collect();
        for t in &touching {
            s.routes.insert(*t, vec![]);
        }
        s.unplace(&p, 0);
        assert!(s.placement[0].is_none());
        for t in &touching {
            assert!(!s.routes.contains_key(t));
        }
    }

    #[test]
    fn invalidate_drops_placements_on_removed_nodes() {
        let mut adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        let victim_pe = adg.pes().next().unwrap();
        // Build the problem against the *mutated* adg after deleting a PE,
        // as the DSE does.
        let mut s = {
            let p = Problem::new(&adg, &ck);
            let mut s = Schedule::empty(&p);
            // Place an op entity on the victim PE.
            let op_idx = p
                .entities
                .iter()
                .position(|e| matches!(e.kind, EntityKind::Op { .. }))
                .unwrap();
            s.placement[op_idx] = Some(victim_pe);
            s
        };
        adg.remove_node(victim_pe).unwrap();
        let p = Problem::new(&adg, &ck);
        let dropped = s.invalidate_removed(&p);
        assert_eq!(dropped, 1);
        assert!(s.placement.iter().all(Option::is_none));
    }

    #[test]
    fn invalidate_drops_routes_with_dead_edges() {
        let mut adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        // Route over an edge, then delete the edge.
        let some_edge = adg.edges().next().unwrap().id();
        let (src_node, dst_node) = {
            let e = adg.edge(some_edge).unwrap();
            (e.src, e.dst)
        };
        let mut s = {
            let p = Problem::new(&adg, &ck);
            let mut s = Schedule::empty(&p);
            if !p.edges.is_empty() {
                s.placement[p.edges[0].src] = Some(src_node);
                s.placement[p.edges[0].dst] = Some(dst_node);
                s.routes.insert(0, vec![some_edge]);
            }
            s
        };
        adg.remove_edge(some_edge).unwrap();
        let p = Problem::new(&adg, &ck);
        s.invalidate_removed(&p);
        assert!(!s.routes.contains_key(&0));
    }

    #[test]
    fn stream_memories_resolve_by_adjacency() {
        let adg = presets::softbrain();
        let (ck, ()) = problem_fixture(&adg);
        let p = Problem::new(&adg, &ck);
        let mut s = Schedule::empty(&p);
        // Place the two in-ports and the out-port on syncs.
        let syncs: Vec<_> = adg.syncs().collect();
        for (i, e) in p.entities.iter().enumerate() {
            match e.kind {
                EntityKind::InPort { .. } | EntityKind::OutPort { .. } => {
                    s.placement[i] = Some(syncs[i % syncs.len()]);
                }
                EntityKind::Op { .. } => {}
            }
        }
        let mems = s.stream_memories(&p);
        assert_eq!(mems.len(), 3); // a, b reads + c write
        for m in mems.values() {
            assert!(matches!(adg.kind(*m), Ok(NodeKind::Memory(_))));
        }
    }
}
