//! Schedule evaluation: the weighted objective of §IV-C.
//!
//! "The objective is formulated as a weighted function which prioritizes
//! minimizing: 1. overutilization of PEs and network, 2. maximum initiation
//! interval of dedicated PEs, 3. latency of any recurrence paths."

use dsagen_adg::{NodeId, Opcode};
use dsagen_dfg::{DfgOp, StreamSource};

use crate::route::{Fabric, Unit};
use crate::schedule::{first_memory_of, LinkTable};
use crate::{Entity, EntityKind, Problem, Schedule};

/// Extra cycles modeling a memory round trip, used for recurrences that
/// cycle through a memory (read-modify-write hazards).
pub(crate) const MEM_ROUNDTRIP: f64 = 16.0;

/// Objective weights, ordered by the paper's priorities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weights {
    /// Per unplaced entity.
    pub unplaced: f64,
    /// Per unrouted dependence (both endpoints placed).
    pub unrouted: f64,
    /// Per unit of resource overutilization (PE slots, network links, sync
    /// ports, memory stream slots, missing lanes).
    pub overuse: f64,
    /// Per unit of maximum initiation interval beyond 1.
    pub ii: f64,
    /// Per cycle of unabsorbed operand-arrival mismatch at static PEs.
    pub mismatch: f64,
    /// Per cycle of recurrence-path latency.
    pub recurrence: f64,
    /// Per port whose stream has no compatible adjacent memory.
    pub mem_missing: f64,
    /// Per network hop (tie-breaker toward short routes).
    pub hops: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            unplaced: 2000.0,
            unrouted: 1500.0,
            overuse: 1000.0,
            ii: 10.0,
            mismatch: 3.0,
            recurrence: 1.0,
            mem_missing: 500.0,
            hops: 0.05,
        }
    }
}

/// Per-region timing facts the performance model consumes (§V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionEval {
    /// Maximum initiation interval across the PEs hosting this region's
    /// instructions (1.0 = fully pipelined).
    pub max_ii: f64,
    /// Unabsorbed operand-arrival mismatch (cycles); throughput loss is
    /// proportional to this imbalance (§III-B, \[64\]).
    pub mismatch_excess: f64,
    /// Longest input-port → output-port path in cycles.
    pub crit_path: f64,
    /// Latency of each recorded recurrence, in `dfg.recurrences()` order.
    pub recurrence_latencies: Vec<f64>,
}

/// The result of evaluating a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Weighted objective (lower is better; 0-overuse schedules are legal).
    pub objective: f64,
    /// Entities without a placement.
    pub unplaced: usize,
    /// Dependences without a route (both endpoints placed).
    pub unrouted: usize,
    /// Total resource overutilization.
    pub overuse: f64,
    /// Ports lacking a compatible adjacent memory.
    pub mem_missing: usize,
    /// Largest PE initiation interval.
    pub max_ii: f64,
    /// Total unabsorbed mismatch.
    pub mismatch: f64,
    /// Total network hops.
    pub hops: usize,
    /// Per-region timing facts.
    pub regions: Vec<RegionEval>,
    /// Arrival time (cycles from region start) per entity.
    pub arrivals: Vec<f64>,
    /// Raw operand-arrival spread per entity (before delay-element
    /// absorption) — the balancing delay the hardware generator programs
    /// into static PEs (§VI "execution timing").
    pub operand_spread: Vec<f64>,
    /// Whether the schedule is complete and violation-free.
    pub feasible: bool,
}

/// Evaluates `schedule` against `problem`.
#[must_use]
pub fn evaluate(problem: &Problem<'_>, schedule: &Schedule, weights: &Weights) -> Evaluation {
    let fabric = Fabric::new(problem.adg);
    let mut scratch = Scratch::new(problem, &fabric);
    let links = LinkTable::of(problem, schedule);
    evaluate_with(problem, schedule, &links, &fabric, weights, &mut scratch);
    scratch.evaluation(problem)
}

/// What the search compares candidates and incumbents by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Score {
    pub(crate) objective: f64,
    pub(crate) feasible: bool,
}

/// What the objective knows about a port entity whose stream needs or
/// names a memory.
#[derive(Debug, Clone, Copy)]
struct PortStream {
    /// Its row in [`Scratch::adjacent`].
    row: usize,
    /// The stream takes a memory stream slot: the adjacent memory's, or
    /// failing that `fallback`'s (it names a memory class).
    binds: bool,
    /// The first memory of the stream's class.
    fallback: Option<NodeId>,
}

/// What has arrived at an entity so far in the timing pass.
#[derive(Debug, Clone, Copy)]
struct Incoming {
    operands: u32,
    latest: f64,
    earliest: f64,
    /// The largest delay capacity among the operands' routes.
    capacity: f64,
}

const NOTHING: Incoming = Incoming {
    operands: 0,
    latest: 0.0,
    earliest: f64::INFINITY,
    capacity: 0.0,
};

/// Per-region facts of one pass, before the recurrence latencies.
#[derive(Debug, Clone, Copy)]
struct RegionFacts {
    max_ii: f64,
    mismatch_excess: f64,
    crit_path: f64,
}

/// The objective's working memory for one problem, reused by every
/// evaluation of a search so a pass allocates nothing. After
/// [`evaluate_with`] it holds that pass's totals and per-entity timing, and
/// [`Scratch::evaluation`] turns them into an [`Evaluation`].
#[derive(Debug)]
pub(crate) struct Scratch {
    // Per node slot; nonzero only at `touched` slots between passes.
    ops_on: Vec<u32>,
    rate_on: Vec<f64>,
    ports_on: Vec<u32>,
    streams_on: Vec<u32>,
    /// The node slots counted in this pass, each once.
    touched: Vec<usize>,
    /// Per virtual edge: its route's hops and delay capacity.
    routed: Vec<Option<(u32, u32)>>,
    // Per entity.
    arrival: Vec<f64>,
    mismatch: Vec<f64>,
    spread: Vec<f64>,
    incoming: Vec<Incoming>,
    /// Per kernel region.
    regions: Vec<RegionFacts>,
    /// Per entity: its memory stream, if it is a port with one.
    streams: Vec<Option<PortStream>>,
    /// Per (memory-stream port entity, sync node slot): the first compatible
    /// memory adjacent to the sync, filled on first use — `0` not yet looked
    /// up, `1` none (the port prices as `mem_missing`), `k + 2` node slot `k`.
    adjacent: Vec<u32>,
    /// The memories the controller-side index streams bind to, which no
    /// placement moves.
    index_memories: Vec<NodeId>,
    // Totals of the last pass.
    unplaced: usize,
    unrouted: usize,
    overuse: f64,
    mem_missing: usize,
    max_ii: f64,
    total_mismatch: f64,
    hops: usize,
    score: Score,
}

impl Scratch {
    pub(crate) fn new(problem: &Problem<'_>, fabric: &Fabric<'_>) -> Self {
        let adg = fabric.adg;
        let nodes = adg.node_slots();
        let entities = problem.entities.len();
        let mut rows = 0;
        let streams = problem
            .entities
            .iter()
            .map(|e| {
                let port = !matches!(e.kind, EntityKind::Op { .. });
                (port && (e.needs_memory || e.mem_class.is_some())).then(|| {
                    rows += 1;
                    PortStream {
                        row: rows - 1,
                        binds: e.mem_class.is_some(),
                        fallback: e.mem_class.and_then(|mc| first_memory_of(adg, mc)),
                    }
                })
            })
            .collect();
        let mut index_memories = Vec::new();
        for region in &problem.kernel.regions {
            for s in region.in_streams.iter().filter(|s| !s.to_fabric) {
                if let StreamSource::Memory(mc) = s.source {
                    index_memories.extend(first_memory_of(adg, mc));
                }
            }
        }
        Scratch {
            ops_on: vec![0; nodes],
            rate_on: vec![0.0; nodes],
            ports_on: vec![0; nodes],
            streams_on: vec![0; nodes],
            touched: Vec::new(),
            routed: vec![None; problem.edges.len()],
            arrival: vec![0.0; entities],
            mismatch: vec![0.0; entities],
            spread: vec![0.0; entities],
            incoming: vec![NOTHING; entities],
            regions: Vec::with_capacity(problem.kernel.regions.len()),
            streams,
            adjacent: vec![0; rows * nodes],
            index_memories,
            unplaced: 0,
            unrouted: 0,
            overuse: 0.0,
            mem_missing: 0,
            max_ii: 1.0,
            total_mismatch: 0.0,
            hops: 0,
            score: Score {
                objective: 0.0,
                feasible: false,
            },
        }
    }

    /// Marks node slot `idx` as counted in this pass, growing the tables
    /// for a slot the fabric does not have.
    fn touch(&mut self, idx: usize) {
        if idx >= self.ops_on.len() {
            self.ops_on.resize(idx + 1, 0);
            self.rate_on.resize(idx + 1, 0.0);
            self.ports_on.resize(idx + 1, 0);
            self.streams_on.resize(idx + 1, 0);
        }
        if self.ops_on[idx] == 0 && self.ports_on[idx] == 0 && self.streams_on[idx] == 0 {
            self.touched.push(idx);
        }
    }

    /// Zeroes the counts of the last pass.
    fn clear_counts(&mut self) {
        for &idx in &self.touched {
            self.ops_on[idx] = 0;
            self.rate_on[idx] = 0.0;
            self.ports_on[idx] = 0;
            self.streams_on[idx] = 0;
        }
        self.touched.clear();
    }

    /// `entity.adjacent_memory(sync)`, asked of the ADG once per (port,
    /// sync) and remembered.
    fn adjacent_memory(
        &mut self,
        fabric: &Fabric<'_>,
        stream: PortStream,
        entity: &Entity,
        sync: NodeId,
    ) -> Option<NodeId> {
        let adg = fabric.adg;
        let nodes = adg.node_slots();
        let cell = (sync.index() < nodes).then(|| stream.row * nodes + sync.index());
        match cell.map(|c| self.adjacent[c]) {
            Some(0) | None => {}
            Some(1) => return None,
            Some(k) => return Some(NodeId::from_index(k as usize - 2)),
        }
        let adjacent = entity.adjacent_memory(adg, sync);
        if let Some(c) = cell {
            self.adjacent[c] = adjacent.map_or(1, |m| m.index() as u32 + 2);
        }
        adjacent
    }

    /// The full record of the last [`evaluate_with`] pass.
    pub(crate) fn evaluation(&self, problem: &Problem<'_>) -> Evaluation {
        let regions = self
            .regions
            .iter()
            .zip(&problem.kernel.regions)
            .map(|(facts, region)| RegionEval {
                max_ii: facts.max_ii,
                mismatch_excess: facts.mismatch_excess,
                crit_path: facts.crit_path,
                recurrence_latencies: recurrence_latencies(region, facts.crit_path).collect(),
            })
            .collect();
        Evaluation {
            objective: self.score.objective,
            unplaced: self.unplaced,
            unrouted: self.unrouted,
            overuse: self.overuse,
            mem_missing: self.mem_missing,
            max_ii: self.max_ii,
            mismatch: self.total_mismatch,
            hops: self.hops,
            regions,
            arrivals: self.arrival.clone(),
            operand_spread: self.spread.clone(),
            feasible: self.score.feasible,
        }
    }
}

/// The latency of each of `region`'s recurrences, in `dfg.recurrences()`
/// order, when its critical path is `crit` cycles.
fn recurrence_latencies(
    region: &dsagen_dfg::CompiledRegion,
    crit: f64,
) -> impl Iterator<Item = f64> + '_ {
    region
        .dfg
        .recurrences()
        .iter()
        .map(move |rec| match region.dfg.op(rec.through) {
            // Local accumulator: self-loop on the hosting PE.
            DfgOp::Accum { op, .. } => f64::from(op.latency()),
            // Anything else cycles through memory.
            _ => crit + MEM_ROUNDTRIP,
        })
}

/// One pass of the objective over `schedule`, given its link table (which
/// the search loop keeps in step with its edits) and the search's fabric
/// view, into `scratch`. Returns what the search compares; the rest of the
/// [`Evaluation`] stays in `scratch`.
pub(crate) fn evaluate_with(
    problem: &Problem<'_>,
    schedule: &Schedule,
    links: &LinkTable,
    fabric: &Fabric<'_>,
    weights: &Weights,
    s: &mut Scratch,
) -> Score {
    let unplaced = schedule.placement.iter().filter(|p| p.is_none()).count();

    // ------------------------------------------------ resource accounting
    // Counts per node slot (a schedule may name nodes the fabric no longer
    // has; they still count where the kind is not consulted).
    s.clear_counts();
    let mut lane_deficit = 0.0f64;
    let mut mem_missing = 0usize;
    for (i, entity) in problem.entities.iter().enumerate() {
        let Some(node) = schedule.placement[i] else {
            continue;
        };
        s.touch(node.index());
        match entity.kind {
            EntityKind::Op { .. } => {
                s.ops_on[node.index()] += 1;
                s.rate_on[node.index()] += entity.rate;
            }
            EntityKind::InPort { .. } | EntityKind::OutPort { .. } => {
                s.ports_on[node.index()] += 1;
                if let Unit::Sync { lanes } = fabric.unit(node) {
                    lane_deficit += f64::from(entity.lanes.saturating_sub(u16::from(lanes)));
                }
                let Some(stream) = s.streams[i] else {
                    continue;
                };
                let adjacent = s.adjacent_memory(fabric, stream, entity, node);
                if entity.needs_memory && adjacent.is_none() {
                    mem_missing += 1;
                }
                // Memory stream-slot pressure.
                if let Some(memory) = adjacent.or(stream.fallback).filter(|_| stream.binds) {
                    s.touch(memory.index());
                    s.streams_on[memory.index()] += 1;
                }
            }
        }
    }
    for k in 0..s.index_memories.len() {
        let memory = s.index_memories[k].index();
        s.touch(memory);
        s.streams_on[memory] += 1;
    }

    // Every addend of `overuse` is an integer-valued `f64`, so the sum is
    // exact whatever order the resources are counted in.
    let mut overuse = lane_deficit;
    let mut max_ii = 1.0f64;
    for &idx in &s.touched {
        overuse += f64::from(s.ports_on[idx].saturating_sub(1));
        let ops = s.ops_on[idx];
        match fabric.unit(NodeId::from_index(idx)) {
            Unit::Pe { slots, .. } if ops > 0 => {
                overuse += f64::from(ops.saturating_sub(slots));
                // Dedicated PEs serialize everything mapped to them; shared
                // PEs multiplex up to their slot count at rate cost.
                max_ii = max_ii.max(s.rate_on[idx]);
            }
            Unit::Memory { streams } => {
                overuse += f64::from(s.streams_on[idx].saturating_sub(u32::from(streams)));
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------- routes
    // `routed[i]` is virtual edge `i`'s route as the timing pass reads it:
    // one walk of the route map instead of a lookup per edge.
    s.routed.fill(None);
    for (i, path) in schedule.routes.range(..problem.edges.len()) {
        s.routed[*i] = Some((path.len() as u32, fabric.delay_capacity(path)));
    }
    let mut unrouted = 0usize;
    let mut hops = 0usize;
    for (vedge, route) in problem.edges.iter().zip(&s.routed) {
        let placed =
            schedule.placement[vedge.src].is_some() && schedule.placement[vedge.dst].is_some();
        match route {
            Some((len, _)) => hops += *len as usize,
            None if placed => unrouted += 1,
            None => {}
        }
    }
    // Network overutilization counts distinct *values* per link: fan-out of
    // one value over one physical link is a broadcast, not contention.
    overuse += links.overuse() as f64;

    // ------------------------------------------------------------- timing
    compute_timing(problem, schedule, fabric, s);
    let mismatch: f64 = s.mismatch.iter().sum();

    // ------------------------------------------------------- region facts
    // One pass over the entities; each region still sees its own entities
    // in index order, so its sums accumulate as they always have.
    s.regions.clear();
    s.regions.resize(
        problem.kernel.regions.len(),
        RegionFacts {
            max_ii: 1.0,
            mismatch_excess: 0.0,
            crit_path: 0.0,
        },
    );
    for (i, entity) in problem.entities.iter().enumerate() {
        let Some(facts) = s.regions.get_mut(entity.region()) else {
            continue;
        };
        if let EntityKind::Op { .. } = entity.kind {
            if let Some(node) = schedule.placement[i] {
                facts.max_ii = facts.max_ii.max(s.rate_on[node.index()]);
            }
            facts.mismatch_excess += s.mismatch[i];
        }
        facts.crit_path = facts.crit_path.max(s.arrival[i]);
    }
    let total_rec: f64 = problem
        .kernel
        .regions
        .iter()
        .zip(&s.regions)
        .flat_map(|(region, facts)| recurrence_latencies(region, facts.crit_path))
        .sum();

    let feasible = unplaced == 0 && unrouted == 0 && overuse == 0.0 && mem_missing == 0;
    let objective = weights.unplaced * unplaced as f64
        + weights.unrouted * unrouted as f64
        + weights.overuse * overuse
        + weights.ii * (max_ii - 1.0).max(0.0)
        + weights.mismatch * mismatch
        + weights.recurrence * total_rec
        + weights.mem_missing * mem_missing as f64
        + weights.hops * hops as f64;

    s.unplaced = unplaced;
    s.unrouted = unrouted;
    s.overuse = overuse;
    s.mem_missing = mem_missing;
    s.max_ii = max_ii;
    s.total_mismatch = mismatch;
    s.hops = hops;
    s.score = Score {
        objective,
        feasible,
    };
    s.score
}

/// Longest-path arrival time per entity, unabsorbed mismatch per
/// (static-PE) entity, and raw operand spread per entity, into `s`.
/// "Recompute the timing (min/max time of each instruction)" — Algorithm 1.
fn compute_timing(
    problem: &Problem<'_>,
    schedule: &Schedule,
    fabric: &Fabric<'_>,
    s: &mut Scratch,
) {
    s.arrival.fill(0.0);
    s.mismatch.fill(0.0);
    s.spread.fill(0.0);
    s.incoming.fill(NOTHING);

    for &v in problem.timing_order() {
        // Node processing: compute departure.
        let entity = &problem.entities[v];
        let arrived = s.incoming[v];
        let (start, spread) = if arrived.operands == 0 {
            (0.0, 0.0)
        } else {
            (arrived.latest, arrived.latest - arrived.earliest)
        };
        s.arrival[v] = start;
        s.spread[v] = spread;
        // Mismatch only matters on statically-scheduled PEs; the spread
        // beyond the available delay capacity is unabsorbable.
        if let EntityKind::Op { .. } = entity.kind {
            if let Some(node) = schedule.placement[v] {
                if let Unit::Pe { fixed: true, .. } = fabric.unit(node) {
                    if arrived.operands >= 2 {
                        s.mismatch[v] = (spread - arrived.capacity).max(0.0);
                    }
                }
            }
        }
        let latency = entity
            .opcode
            .map_or(1.0, |oc: Opcode| f64::from(oc.latency()));
        let departure = start + latency;

        for &ei in problem.incident(v) {
            let e = &problem.edges[ei];
            if e.src != v {
                continue;
            }
            let (route_len, cap) = match s.routed[ei] {
                Some((len, cap)) => (f64::from(len), f64::from(cap)),
                None => (4.0, 0.0), // unrouted estimate
            };
            let at = &mut s.incoming[e.dst];
            at.operands += 1;
            at.latest = at.latest.max(departure + route_len);
            at.earliest = at.earliest.min(departure + route_len);
            at.capacity = at.capacity.max(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use dsagen_adg::{EdgeId, NodeKind, Scheduling};

    use super::*;

    fn fixture() -> (dsagen_adg::Adg, dsagen_dfg::CompiledKernel) {
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 64, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(64), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let s = r.bin(Opcode::Mul, va, vb);
        let t = r.bin(Opcode::Add, s, vb);
        r.store(c, AffineExpr::var(i), t);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        (adg, ck)
    }

    #[test]
    fn empty_schedule_is_heavily_penalized() {
        let (adg, ck) = fixture();
        let p = Problem::new(&adg, &ck);
        let s = Schedule::empty(&p);
        let ev = evaluate(&p, &s, &Weights::default());
        assert!(!ev.feasible);
        assert_eq!(ev.unplaced, p.entities.len());
        assert!(ev.objective >= 2000.0 * p.entities.len() as f64);
    }

    #[test]
    fn two_ops_on_one_dedicated_pe_overuse() {
        let (adg, ck) = fixture();
        let p = Problem::new(&adg, &ck);
        let mut s = Schedule::empty(&p);
        let pe = adg.pes().next().unwrap();
        let ops: Vec<usize> = p
            .entities
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EntityKind::Op { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ops.len(), 2);
        for o in &ops {
            s.placement[*o] = Some(pe);
        }
        let ev = evaluate(&p, &s, &Weights::default());
        assert!(ev.overuse >= 1.0);
        assert!(ev.max_ii >= 2.0);
    }

    #[test]
    fn shared_pe_absorbs_two_ops_without_overuse() {
        let adg = presets::triggered(); // 16-slot shared PEs
        let (_, ck) = fixture();
        let p = Problem::new(&adg, &ck);
        let mut s = Schedule::empty(&p);
        let pe = adg.pes().next().unwrap();
        for (i, e) in p.entities.iter().enumerate() {
            if matches!(e.kind, EntityKind::Op { .. }) {
                s.placement[i] = Some(pe);
            }
        }
        let ev = evaluate(&p, &s, &Weights::default());
        assert_eq!(ev.overuse, 0.0, "shared slots should absorb both ops");
        // But the II still reflects the multiplexing.
        assert!(ev.max_ii >= 2.0);
    }

    #[test]
    fn route_congestion_counts_as_overuse() {
        let (adg, ck) = fixture();
        let p = Problem::new(&adg, &ck);
        let mut s = Schedule::empty(&p);
        let some_edge = adg.edges().next().unwrap().id();
        s.routes.insert(0, vec![some_edge]);
        s.routes.insert(1, vec![some_edge]);
        let ev = evaluate(&p, &s, &Weights::default());
        assert!(ev.overuse >= 1.0);
        assert_eq!(ev.hops, 2);
    }

    #[test]
    fn accum_recurrence_latency_is_op_latency() {
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(64), true);
        let va = r.load(a, AffineExpr::var(i));
        let acc = r.reduce(Opcode::FAdd, va, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let p = Problem::new(&adg, &ck);
        let s = Schedule::empty(&p);
        let ev = evaluate(&p, &s, &Weights::default());
        assert_eq!(
            ev.regions[0].recurrence_latencies,
            vec![f64::from(Opcode::FAdd.latency())]
        );
    }

    /// A random schedule for `problem`: some entities unplaced, many piled
    /// onto their first two candidates, a few on any node or on a node the
    /// fabric does not have; most placed dependences routed, some along a
    /// random run of links (named or not), some left unrouted.
    fn random_schedule(problem: &Problem<'_>, rng: &mut StdRng) -> Schedule {
        let adg = problem.adg;
        let nodes: Vec<NodeId> = adg.nodes().map(|n| n.id()).collect();
        let mut s = Schedule::empty(problem);
        for (i, entity) in problem.entities.iter().enumerate() {
            let candidates = problem.candidates(entity);
            s.placement[i] = match rng.gen_range(0..40) {
                0..=5 => None,
                6..=15 => candidates.get(rng.gen_range(0..2usize)).copied(),
                16 | 17 => Some(nodes[rng.gen_range(0..nodes.len())]),
                18 => Some(NodeId::from_index(
                    adg.node_slots() + rng.gen_range(0..3usize),
                )),
                _ => candidates.choose(rng).copied(),
            };
        }
        for (i, e) in problem.edges.iter().enumerate() {
            let (Some(src), Some(dst)) = (s.placement[e.src], s.placement[e.dst]) else {
                continue;
            };
            match rng.gen_range(0..10) {
                0..=5 => {
                    if let Some(path) = crate::route(adg, src, dst, |_| 0, 100.0) {
                        s.routes.insert(i, path);
                    }
                }
                6 => {
                    let links = adg.edge_slots() + 2;
                    let run = (0..rng.gen_range(1..5))
                        .map(|_| EdgeId::from_index(rng.gen_range(0..links)))
                        .collect();
                    s.routes.insert(i, run);
                }
                _ => {}
            }
        }
        s
    }

    /// Schedules per (fabric, kernel) in the objective's property test.
    const SCHEDULES: usize = if cfg!(debug_assertions) { 10 } else { 100 };

    /// One long-lived scratch per (fabric, kernel) — so a count left over
    /// from an earlier pass would show — against the public [`evaluate`]
    /// (objective bits and feasibility) and the reference (every field).
    #[test]
    fn the_scratch_pass_agrees_with_evaluate_and_the_reference() {
        let weights = Weights::default();
        let mut rng = StdRng::seed_from_u64(0x0B1EC7);
        let (mut schedules, mut feasible) = (0, 0);
        // The four presets, and softbrain with one stream slot per memory so
        // stream-slot overuse is common.
        let mut starved = presets::softbrain();
        for m in starved.memories().collect::<Vec<_>>() {
            if let Some(NodeKind::Memory(spec)) = starved.node_mut(m).map(|n| &mut n.kind) {
                spec.num_streams = 1;
            }
        }
        let fabrics = [
            presets::softbrain(),
            presets::spu(),
            presets::revel(),
            presets::dse_initial(),
            starved,
        ];
        for adg in fabrics {
            let router = crate::route::Router::new(&adg);
            for w in dsagen_workloads::all() {
                let Ok(ck) =
                    compile_kernel(&w.kernel, &TransformConfig::fallback(), &adg.features())
                else {
                    continue;
                };
                let problem = Problem::new(&adg, &ck);
                let mut scratch = Scratch::new(&problem, router.fabric());
                let mut schedules_here: Vec<Schedule> = (0..SCHEDULES)
                    .map(|_| random_schedule(&problem, &mut rng))
                    .collect();
                schedules_here.push(Schedule::empty(&problem));
                if schedules == 0 {
                    let cfg = crate::SchedulerConfig::default();
                    let tel = dsagen_telemetry::Telemetry::disabled();
                    let fresh = crate::schedule(&adg, &ck, &crate::Start::Empty, &cfg, &tel);
                    schedules_here.push(fresh.expect("nothing is pinned").schedule);
                }
                for s in &schedules_here {
                    let links = LinkTable::of(&problem, s);
                    let score =
                        evaluate_with(&problem, s, &links, router.fabric(), &weights, &mut scratch);
                    let public = evaluate(&problem, s, &weights);
                    let what = format!("{} on {}", w.name, adg.name());
                    assert_eq!(
                        score.objective.to_bits(),
                        public.objective.to_bits(),
                        "{what}"
                    );
                    assert_eq!(score.feasible, public.feasible, "{what}");
                    let reference = evaluate_reference(&problem, s, &weights);
                    assert_eq!(
                        format!("{:?}", scratch.evaluation(&problem)),
                        format!("{reference:?}"),
                        "{what}"
                    );
                    schedules += 1;
                    feasible += usize::from(score.feasible);
                }
            }
        }
        assert!(
            schedules > 100 && feasible > 0,
            "{schedules} schedules, {feasible} feasible"
        );
    }

    /// The objective as it was before it kept scratch buffers and a fabric
    /// view: fresh tables per call and the ADG asked per entity. Kept as the
    /// oracle for [`evaluate_with`].
    fn evaluate_reference(
        problem: &Problem<'_>,
        schedule: &Schedule,
        weights: &Weights,
    ) -> Evaluation {
        let adg = problem.adg;
        let links = LinkTable::of(problem, schedule);
        let unplaced = schedule.placement.iter().filter(|p| p.is_none()).count();

        // ------------------------------------------------ resource accounting
        // Dense tables over node slots (a schedule may name nodes the fabric no
        // longer has; they still count where the kind is not consulted).
        let node_slots = schedule
            .placement
            .iter()
            .flatten()
            .fold(adg.node_slots(), |slots, node| slots.max(node.index() + 1));
        let mut ops_on = vec![0u32; node_slots];
        let mut rate_on = vec![0.0f64; node_slots];
        let mut ports_on = vec![0u32; node_slots];
        let mut streams_on = vec![0u32; node_slots];
        let mut lane_deficit = 0.0f64;
        let mut mem_missing = 0usize;

        for (i, entity) in problem.entities.iter().enumerate() {
            let Some(node) = schedule.placement[i] else {
                continue;
            };
            match entity.kind {
                EntityKind::Op { .. } => {
                    ops_on[node.index()] += 1;
                    rate_on[node.index()] += entity.rate;
                }
                EntityKind::InPort { .. } | EntityKind::OutPort { .. } => {
                    ports_on[node.index()] += 1;
                    if let Ok(NodeKind::Sync(sy)) = adg.kind(node) {
                        lane_deficit += f64::from(entity.lanes.saturating_sub(u16::from(sy.lanes)));
                    }
                    if entity.needs_memory && entity.adjacent_memory(adg, node).is_none() {
                        mem_missing += 1;
                    }
                }
            }
        }
        // Memory stream-slot pressure.
        for memory in schedule.stream_memories(problem).values() {
            streams_on[memory.index()] += 1;
        }

        // Every addend of `overuse` is an integer-valued `f64`, so the sum is
        // exact whatever order the resources are counted in.
        let mut overuse = lane_deficit;
        let mut max_ii = 1.0f64;
        for idx in 0..node_slots {
            overuse += f64::from(ports_on[idx].saturating_sub(1));
            if ops_on[idx] == 0 && streams_on[idx] == 0 {
                continue;
            }
            match adg.kind(NodeId::from_index(idx)) {
                Ok(NodeKind::Pe(pe)) if ops_on[idx] > 0 => {
                    let slots = pe.sharing.instruction_slots();
                    overuse += f64::from(ops_on[idx].saturating_sub(slots));
                    // Dedicated PEs serialize everything mapped to them; shared
                    // PEs multiplex up to their slot count at rate cost.
                    max_ii = max_ii.max(rate_on[idx]);
                }
                Ok(NodeKind::Memory(spec)) => {
                    overuse +=
                        f64::from(streams_on[idx].saturating_sub(u32::from(spec.num_streams)));
                }
                _ => {}
            }
        }

        // ------------------------------------------------------------- routes
        // `routed[i]` is virtual edge `i`'s path: one walk of the route map
        // instead of a lookup per edge here and another in the timing pass.
        let mut routed: Vec<Option<&[EdgeId]>> = vec![None; problem.edges.len()];
        for (i, path) in schedule.routes.range(..routed.len()) {
            routed[*i] = Some(path);
        }
        let mut unrouted = 0usize;
        let mut hops = 0usize;
        for (vedge, path) in problem.edges.iter().zip(&routed) {
            let placed =
                schedule.placement[vedge.src].is_some() && schedule.placement[vedge.dst].is_some();
            match path {
                Some(path) => hops += path.len(),
                None if placed => unrouted += 1,
                None => {}
            }
        }
        // Network overutilization counts distinct *values* per link: fan-out of
        // one value over one physical link is a broadcast, not contention.
        overuse += links.overuse() as f64;

        // ------------------------------------------------------------- timing
        let (arrivals, mismatch_by_entity, spread_by_entity) =
            timing_reference(problem, schedule, &routed);
        let mismatch: f64 = mismatch_by_entity.iter().sum();

        // ------------------------------------------------------- region facts
        // One pass over the entities; each region still sees its own entities
        // in index order, so its sums accumulate as they always have.
        let mut regions: Vec<RegionEval> = problem
            .kernel
            .regions
            .iter()
            .map(|_| RegionEval {
                max_ii: 1.0,
                mismatch_excess: 0.0,
                crit_path: 0.0,
                recurrence_latencies: Vec::new(),
            })
            .collect();
        for (i, entity) in problem.entities.iter().enumerate() {
            let Some(facts) = regions.get_mut(entity.region()) else {
                continue;
            };
            if let EntityKind::Op { .. } = entity.kind {
                if let Some(node) = schedule.placement[i] {
                    facts.max_ii = facts.max_ii.max(rate_on[node.index()]);
                }
                facts.mismatch_excess += mismatch_by_entity[i];
            }
            facts.crit_path = facts.crit_path.max(arrivals[i]);
        }
        for (facts, region) in regions.iter_mut().zip(&problem.kernel.regions) {
            let crit = facts.crit_path;
            facts.recurrence_latencies = region
                .dfg
                .recurrences()
                .iter()
                .map(|rec| match region.dfg.op(rec.through) {
                    // Local accumulator: self-loop on the hosting PE.
                    DfgOp::Accum { op, .. } => f64::from(op.latency()),
                    // Anything else cycles through memory.
                    _ => crit + MEM_ROUNDTRIP,
                })
                .collect();
        }

        let total_rec: f64 = regions
            .iter()
            .flat_map(|r| r.recurrence_latencies.iter())
            .sum();

        let feasible = unplaced == 0 && unrouted == 0 && overuse == 0.0 && mem_missing == 0;
        let objective = weights.unplaced * unplaced as f64
            + weights.unrouted * unrouted as f64
            + weights.overuse * overuse
            + weights.ii * (max_ii - 1.0).max(0.0)
            + weights.mismatch * mismatch
            + weights.recurrence * total_rec
            + weights.mem_missing * mem_missing as f64
            + weights.hops * hops as f64;

        Evaluation {
            objective,
            unplaced,
            unrouted,
            overuse,
            mem_missing,
            max_ii,
            mismatch,
            hops,
            regions,
            arrivals,
            operand_spread: spread_by_entity,
            feasible,
        }
    }

    /// Longest-path arrival time per entity, unabsorbed mismatch per
    /// (static-PE) entity, and raw operand spread per entity. "Recompute the
    /// timing (min/max time of each instruction)" — Algorithm 1.
    fn timing_reference(
        problem: &Problem<'_>,
        schedule: &Schedule,
        routed: &[Option<&[EdgeId]>],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        /// What has arrived at an entity so far.
        #[derive(Clone, Copy)]
        struct Incoming {
            operands: u32,
            latest: f64,
            earliest: f64,
            /// The largest delay capacity among the operands' routes.
            capacity: f64,
        }
        let n = problem.entities.len();
        let mut arrival = vec![0.0f64; n];
        let mut mismatch = vec![0.0f64; n];
        let mut spreads = vec![0.0f64; n];
        let nothing = Incoming {
            operands: 0,
            latest: 0.0,
            earliest: f64::INFINITY,
            capacity: 0.0,
        };
        let mut incoming = vec![nothing; n];

        for &v in problem.timing_order() {
            // Node processing: compute departure.
            let entity = &problem.entities[v];
            let arrived = incoming[v];
            let (start, spread) = if arrived.operands == 0 {
                (0.0, 0.0)
            } else {
                (arrived.latest, arrived.latest - arrived.earliest)
            };
            arrival[v] = start;
            spreads[v] = spread;
            // Mismatch only matters on statically-scheduled PEs; the spread
            // beyond the available delay capacity is unabsorbable.
            if let EntityKind::Op { .. } = entity.kind {
                if let Some(node) = schedule.placement[v] {
                    if let Ok(NodeKind::Pe(pe)) = problem.adg.kind(node) {
                        if pe.scheduling == Scheduling::Static && arrived.operands >= 2 {
                            mismatch[v] = (spread - arrived.capacity).max(0.0);
                        }
                    }
                }
            }
            let latency = entity
                .opcode
                .map_or(1.0, |oc: Opcode| f64::from(oc.latency()));
            let departure = start + latency;

            for &ei in problem.incident(v) {
                let e = &problem.edges[ei];
                if e.src != v {
                    continue;
                }
                let (route_len, cap) = match routed[ei] {
                    Some(path) => (
                        path.len() as f64,
                        f64::from(crate::route::delay_capacity(problem.adg, path)),
                    ),
                    None => (4.0, 0.0), // unrouted estimate
                };
                let at = &mut incoming[e.dst];
                at.operands += 1;
                at.latest = at.latest.max(departure + route_len);
                at.earliest = at.earliest.min(departure + route_len);
                at.capacity = at.capacity.max(cap);
            }
        }
        (arrival, mismatch, spreads)
    }
}
