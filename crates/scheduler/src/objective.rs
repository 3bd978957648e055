//! Schedule evaluation: the weighted objective of §IV-C.
//!
//! "The objective is formulated as a weighted function which prioritizes
//! minimizing: 1. overutilization of PEs and network, 2. maximum initiation
//! interval of dedicated PEs, 3. latency of any recurrence paths."

use dsagen_adg::{EdgeId, NodeId, NodeKind, Opcode, Scheduling};
use dsagen_dfg::DfgOp;

use crate::route::delay_capacity;
use crate::schedule::LinkTable;
use crate::{EntityKind, Problem, Schedule};

/// Extra cycles modeling a memory round trip, used for recurrences that
/// cycle through a memory (read-modify-write hazards).
pub const MEM_ROUNDTRIP: f64 = 16.0;

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
    /// proportional to this imbalance (§III-B, [64]).
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
    evaluate_with(problem, schedule, &LinkTable::of(problem, schedule), weights)
}

/// [`evaluate`] given `schedule`'s link table, which the search loop keeps
/// in step with its edits instead of rebuilding it per evaluation.
pub(crate) fn evaluate_with(
    problem: &Problem<'_>,
    schedule: &Schedule,
    links: &LinkTable,
    weights: &Weights,
) -> Evaluation {
    let adg = problem.adg;
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
                if entity.needs_memory {
                    let adjacent_ok = match entity.kind {
                        EntityKind::InPort { .. } => adg
                            .in_edges(node)
                            .any(|e| memory_ok(adg, e.src, entity)),
                        EntityKind::OutPort { .. } => adg
                            .out_edges(node)
                            .any(|e| memory_ok(adg, e.dst, entity)),
                        EntityKind::Op { .. } => unreachable!(),
                    };
                    if !adjacent_ok {
                        mem_missing += 1;
                    }
                }
            }
        }
    }
    // Memory stream-slot pressure.
    schedule.each_stream_memory(problem, |_, memory| streams_on[memory.index()] += 1);

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
                overuse += f64::from(streams_on[idx].saturating_sub(u32::from(spec.num_streams)));
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
        let placed = schedule.placement[vedge.src].is_some()
            && schedule.placement[vedge.dst].is_some();
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
        compute_timing(problem, schedule, &routed);
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

fn memory_ok(adg: &dsagen_adg::Adg, node: NodeId, entity: &crate::Entity) -> bool {
    match adg.kind(node) {
        Ok(NodeKind::Memory(spec)) => {
            let class_ok = match entity.mem_class {
                Some(dsagen_dfg::MemClass::MainMemory) => {
                    spec.kind == dsagen_adg::MemKind::MainMemory
                }
                Some(dsagen_dfg::MemClass::Scratchpad) => {
                    spec.kind == dsagen_adg::MemKind::Scratchpad
                }
                None => true,
            };
            class_ok
                && (!entity.needs_indirect || spec.controllers.indirect)
                && (!entity.needs_atomic || spec.controllers.atomic_update)
        }
        _ => false,
    }
}

/// Longest-path arrival time per entity, unabsorbed mismatch per
/// (static-PE) entity, and raw operand spread per entity. "Recompute the
/// timing (min/max time of each instruction)" — Algorithm 1.
fn compute_timing(
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
    let nothing = Incoming { operands: 0, latest: 0.0, earliest: f64::INFINITY, capacity: 0.0 };
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
        let latency = entity.opcode.map_or(1.0, |oc: Opcode| f64::from(oc.latency()));
        let departure = start + latency;

        for &ei in problem.incident(v) {
            let e = &problem.edges[ei];
            if e.src != v {
                continue;
            }
            let (route_len, cap) = match routed[ei] {
                Some(path) => (
                    path.len() as f64,
                    f64::from(delay_capacity(problem.adg, path)),
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

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };

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
        let ck =
            compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
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
        let ck =
            compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let p = Problem::new(&adg, &ck);
        let s = Schedule::empty(&p);
        let ev = evaluate(&p, &s, &Weights::default());
        assert_eq!(
            ev.regions[0].recurrence_latencies,
            vec![f64::from(Opcode::FAdd.latency())]
        );
    }
}
