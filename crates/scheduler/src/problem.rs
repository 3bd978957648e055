//! Flattening a compiled kernel into placeable entities and routable
//! virtual edges.

use dsagen_adg::{Adg, MemKind, NodeId, NodeKind, Opcode};
use dsagen_dfg::{CompiledKernel, DfgOp, OpId, StreamSource};

/// What one placeable entity is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A compute node (one PE instruction).
    Op {
        /// Region index within the kernel.
        region: usize,
        /// Node within that region's DFG.
        op: OpId,
    },
    /// An input vector port (one in-stream's sync element). All
    /// `DfgOp::Input` nodes with this port share the placement.
    InPort {
        /// Region index.
        region: usize,
        /// Port index into `in_streams`.
        port: usize,
    },
    /// An output vector port.
    OutPort {
        /// Region index.
        region: usize,
        /// Port index into `out_streams`.
        port: usize,
    },
}

/// A placeable entity plus its placement constraints.
#[derive(Debug, Clone)]
pub struct Entity {
    /// What this entity is.
    pub kind: EntityKind,
    /// For ops: the opcode a hosting PE must support.
    pub opcode: Option<Opcode>,
    /// For ops: whether the hosting PE must support stream-join.
    pub needs_stream_join: bool,
    /// Result width in bits (ops) or element width (ports).
    pub width_bits: u16,
    /// Firing rate relative to the region's instance rate (1.0 = fires
    /// every instance; outer-loop work fires less often and prefers shared
    /// PEs, §IV-C).
    pub rate: f64,
    /// For ports: required vector lanes.
    pub lanes: u16,
    /// For ports: whether the stream needs a memory neighbor (false for
    /// forwarded / control-core streams).
    pub needs_memory: bool,
    /// For ports: whether the paired stream needs an indirect controller.
    pub needs_indirect: bool,
    /// For ports: whether the paired stream needs atomic update.
    pub needs_atomic: bool,
    /// For ports: memory class required, if memory-sourced.
    pub mem_class: Option<dsagen_dfg::MemClass>,
}

impl Entity {
    /// The kernel region this entity belongs to.
    #[must_use]
    pub fn region(&self) -> usize {
        match self.kind {
            EntityKind::Op { region, .. }
            | EntityKind::InPort { region, .. }
            | EntityKind::OutPort { region, .. } => region,
        }
    }

    /// The first memory next to `sync` that can serve this port's stream:
    /// one feeding the sync (an in-port) or fed by it (an out-port), of the
    /// stream's class (any, when it names none) and with the indirect and
    /// atomic-update controllers the stream needs. Ops have none.
    pub(crate) fn adjacent_memory(&self, adg: &Adg, sync: NodeId) -> Option<NodeId> {
        let serves = |node: &NodeId| {
            let Ok(NodeKind::Memory(spec)) = adg.kind(*node) else {
                return false;
            };
            let class_ok = match self.mem_class {
                Some(dsagen_dfg::MemClass::MainMemory) => spec.kind == MemKind::MainMemory,
                Some(dsagen_dfg::MemClass::Scratchpad) => spec.kind == MemKind::Scratchpad,
                None => true,
            };
            class_ok
                && (!self.needs_indirect || spec.controllers.indirect)
                && (!self.needs_atomic || spec.controllers.atomic_update)
        };
        match self.kind {
            EntityKind::InPort { .. } => adg.in_edges(sync).map(|e| e.src).find(serves),
            EntityKind::OutPort { .. } => adg.out_edges(sync).map(|e| e.dst).find(serves),
            EntityKind::Op { .. } => None,
        }
    }
}

/// A dependence between two entities that must be routed on the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtEdge {
    /// Producing entity index.
    pub src: usize,
    /// Consuming entity index.
    pub dst: usize,
    /// Operand position at the consumer (for diagnostics).
    pub operand: usize,
}

/// The flattened scheduling problem.
#[derive(Debug)]
pub struct Problem<'a> {
    /// Target hardware.
    pub adg: &'a Adg,
    /// Program to place.
    pub kernel: &'a CompiledKernel,
    /// Placeable entities.
    pub entities: Vec<Entity>,
    /// Value dependences to route.
    pub edges: Vec<VirtEdge>,
    /// For every (region, dfg op) → entity index (ops and ports; consts map
    /// to `usize::MAX`).
    pub op_entity: Vec<Vec<usize>>,
    /// Entity `v`'s incident virtual edges are
    /// `incident_edges[incident_start[v]..incident_start[v + 1]]`.
    incident_start: Vec<usize>,
    incident_edges: Vec<usize>,
    /// See [`Problem::timing_order`].
    timing_order: Vec<usize>,
}

impl<'a> Problem<'a> {
    /// Builds the problem for `kernel` on `adg`.
    #[must_use]
    pub fn new(adg: &'a Adg, kernel: &'a CompiledKernel) -> Self {
        let mut entities: Vec<Entity> = Vec::new();
        let mut edges = Vec::new();
        let mut op_entity: Vec<Vec<usize>> = Vec::new();
        // (region, in-port) → entity, (region, out-port) → entity
        let mut in_port_entity: Vec<Vec<usize>> = Vec::new();
        let mut out_port_entity: Vec<Vec<usize>> = Vec::new();

        for (ri, region) in kernel.regions.iter().enumerate() {
            let rates = op_rates(region);
            // Port entities first.
            let mut in_map = vec![usize::MAX; region.in_streams.len()];
            for s in &region.in_streams {
                if !s.to_fabric {
                    continue; // index streams bind to the data stream's memory
                }
                let (needs_memory, mem_class) = match s.source {
                    StreamSource::Memory(mc) => (true, Some(mc)),
                    StreamSource::Forward { .. } | StreamSource::ControlCore => (false, None),
                };
                in_map[s.port] = entities.len();
                entities.push(Entity {
                    kind: EntityKind::InPort {
                        region: ri,
                        port: s.port,
                    },
                    opcode: None,
                    needs_stream_join: false,
                    width_bits: (s.elem_bytes * 8).min(4096) as u16,
                    rate: 1.0,
                    lanes: s.lanes,
                    needs_memory,
                    needs_indirect: s.pattern.indirect && needs_memory,
                    needs_atomic: false,
                    mem_class,
                });
            }
            let mut out_map = vec![usize::MAX; region.out_streams.len()];
            for s in &region.out_streams {
                let (needs_memory, mem_class) = match s.source {
                    StreamSource::Memory(mc) => (true, Some(mc)),
                    StreamSource::Forward { .. } | StreamSource::ControlCore => (false, None),
                };
                out_map[s.port] = entities.len();
                entities.push(Entity {
                    kind: EntityKind::OutPort {
                        region: ri,
                        port: s.port,
                    },
                    opcode: None,
                    needs_stream_join: false,
                    width_bits: (s.elem_bytes * 8).min(4096) as u16,
                    rate: 1.0,
                    lanes: s.lanes,
                    needs_memory,
                    needs_indirect: s.pattern.indirect && needs_memory,
                    needs_atomic: s.dir == dsagen_dfg::StreamDir::AtomicUpdate,
                    mem_class,
                });
            }

            // Op entities.
            let mut map = vec![usize::MAX; region.dfg.len()];
            for (oid, op) in region.dfg.iter() {
                match op {
                    DfgOp::Input { port } => {
                        map[oid.index()] = in_map[*port];
                    }
                    DfgOp::Output { port, .. } => {
                        map[oid.index()] = out_map[*port];
                    }
                    DfgOp::Const(_) => {}
                    _ => {
                        map[oid.index()] = entities.len();
                        entities.push(Entity {
                            kind: EntityKind::Op {
                                region: ri,
                                op: oid,
                            },
                            opcode: op.required_opcode(),
                            needs_stream_join: matches!(op, DfgOp::StreamJoin { .. }),
                            width_bits: region.dfg.width(oid).bits(),
                            rate: rates[oid.index()],
                            lanes: 1,
                            needs_memory: false,
                            needs_indirect: false,
                            needs_atomic: false,
                            mem_class: None,
                        });
                    }
                }
            }
            // Value edges (skip constants — they are encoded in PE config).
            for (oid, op) in region.dfg.iter() {
                let dst_entity = map[oid.index()];
                if dst_entity == usize::MAX {
                    continue;
                }
                for (k, operand) in op.operands().iter().enumerate() {
                    let src_entity = map[operand.index()];
                    if src_entity == usize::MAX {
                        continue; // constant operand
                    }
                    edges.push(VirtEdge {
                        src: src_entity,
                        dst: dst_entity,
                        operand: k,
                    });
                }
            }
            op_entity.push(map);
            in_port_entity.push(in_map);
            out_port_entity.push(out_map);
        }

        // Forwarded streams (producer-consumer, repetitive update) travel
        // port-to-port through the stream dispatcher — "the compiler will
        // generate control code that directly forwards the produced value
        // to the consumer" (§IV-D) — so they are *not* routed on the
        // spatial network and add no virtual edges here.
        let _ = (&in_port_entity, &out_port_entity);

        let (incident_start, incident_edges) = incidence(entities.len(), &edges);
        let mut problem = Problem {
            adg,
            kernel,
            entities,
            edges,
            op_entity,
            incident_start,
            incident_edges,
            timing_order: Vec::new(),
        };
        problem.timing_order = problem.kahn_order();
        problem
    }

    /// Indices into `edges` of the virtual edges that start or end at entity
    /// `v`, ascending, a self-edge listed once — the order a scan of `edges`
    /// would visit them in, which the scheduler's routing order (and so its
    /// schedules) depends on.
    #[must_use]
    pub(crate) fn incident(&self, v: usize) -> &[usize] {
        &self.incident_edges[self.incident_start[v]..self.incident_start[v + 1]]
    }

    /// The entities in a topological order of the virtual edges — producers
    /// before consumers — for the objective's arrival-time pass. It depends
    /// on `edges` alone, so it is found once here rather than per
    /// evaluation. Entities on a dependence cycle are left out.
    #[must_use]
    pub(crate) fn timing_order(&self) -> &[usize] {
        &self.timing_order
    }

    /// Kahn's algorithm with a stack as the ready list.
    fn kahn_order(&self) -> Vec<usize> {
        let n = self.entities.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &i in self.incident(v) {
                let e = &self.edges[i];
                if e.src == v {
                    indeg[e.dst] -= 1;
                    if indeg[e.dst] == 0 {
                        ready.push(e.dst);
                    }
                }
            }
        }
        order
    }

    /// ADG nodes compatible with entity `e` (hard constraints only: node
    /// kind, opcode support, stream-join, width). Soft constraints (slots,
    /// lanes, memory adjacency) are priced by the objective instead, so the
    /// search can pass through infeasible intermediate states (§IV-C "the
    /// routing and PE resources are allowed to be overutilized").
    #[must_use]
    pub(crate) fn candidates(&self, e: &Entity) -> Vec<NodeId> {
        match &e.kind {
            EntityKind::Op { .. } => self
                .adg
                .nodes()
                .filter(|n| match &n.kind {
                    NodeKind::Pe(pe) => {
                        let op_ok = e.opcode.is_none_or(|oc| pe.ops.contains(oc));
                        let join_ok = !e.needs_stream_join || pe.supports_stream_join();
                        let width_ok = pe.bitwidth.bits() >= e.width_bits.min(64);
                        op_ok && join_ok && width_ok
                    }
                    _ => false,
                })
                .map(|n| n.id())
                .collect(),
            EntityKind::InPort { .. } | EntityKind::OutPort { .. } => self
                .adg
                .syncs()
                .filter(|&sy| !e.needs_memory || e.adjacent_memory(self.adg, sy).is_some())
                .collect(),
        }
    }
}

/// Per-entity incidence lists over `edges` in compressed-row form (see
/// [`Problem::incident`]): a counting sort, so each list ascends.
fn incidence(entities: usize, edges: &[VirtEdge]) -> (Vec<usize>, Vec<usize>) {
    let ends = |e: &VirtEdge| [Some(e.src), (e.dst != e.src).then_some(e.dst)];
    let mut start = vec![0usize; entities + 1];
    for v in edges.iter().flat_map(ends).flatten() {
        start[v + 1] += 1;
    }
    for v in 0..entities {
        start[v + 1] += start[v];
    }
    let mut next = start.clone();
    let mut list = vec![0usize; start[entities]];
    for (i, e) in edges.iter().enumerate() {
        for v in ends(e).into_iter().flatten() {
            list[next[v]] = i;
            next[v] += 1;
        }
    }
    (start, list)
}

/// Firing rate of every DFG node relative to the region instance rate.
///
/// Inputs fire at the ratio of stream elements to region instances;
/// consumers of an accumulator fire once per `reset_every`; everything else
/// fires at the fastest of its operands. Low-rate nodes prefer shared PEs.
#[must_use]
pub(crate) fn op_rates(region: &dsagen_dfg::CompiledRegion) -> Vec<f64> {
    let mut rates = vec![1.0f64; region.dfg.len()];
    for (oid, op) in region.dfg.iter() {
        let r = match op {
            DfgOp::Input { port } => region
                .in_streams
                .iter()
                .find(|s| s.port == *port && s.to_fabric)
                .map_or(1.0, |s| {
                    let per_instance =
                        s.pattern.total_elems() / f64::from(s.lanes.max(1)) / region.instances;
                    per_instance.clamp(0.0, 1.0)
                }),
            DfgOp::Const(_) => 0.0,
            DfgOp::StreamJoin { .. } => 1.0,
            DfgOp::Compute { ins, .. } => ins
                .iter()
                .map(|o| consumed_rate(region, *o, &rates))
                .fold(0.0, f64::max),
            DfgOp::Accum { input, .. } => consumed_rate(region, *input, &rates),
            DfgOp::Output { input, .. } => consumed_rate(region, *input, &rates),
        };
        rates[oid.index()] = r;
    }
    rates
}

/// The rate at which a *consumer* of `src` fires: accumulator outputs are
/// only released at reset boundaries.
fn consumed_rate(region: &dsagen_dfg::CompiledRegion, src: OpId, rates: &[f64]) -> f64 {
    match region.dfg.op(src) {
        DfgOp::Accum { reset_every, .. } => rates[src.index()] / (*reset_every as f64).max(1.0),
        _ => rates[src.index()],
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };

    use super::*;

    fn dot_compiled(unroll: u16) -> dsagen_dfg::CompiledKernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 1024, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(1024), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let feats = presets::softbrain().features();
        compile_kernel(
            &kernel,
            &TransformConfig {
                unroll,
                ..TransformConfig::fallback()
            },
            &feats,
        )
        .unwrap()
    }

    #[test]
    fn flattening_counts() {
        let adg = presets::softbrain();
        let ck = dot_compiled(1);
        let p = Problem::new(&adg, &ck);
        // 2 in-ports + 1 out-port + mul + accum
        assert_eq!(p.entities.len(), 5);
        // a→mul, b→mul, mul→accum, accum→out
        assert_eq!(p.edges.len(), 4);
    }

    #[test]
    fn incidence_lists_match_a_scan_of_the_edges() {
        let adg = presets::softbrain();
        let ck = dot_compiled(4);
        let mut p = Problem::new(&adg, &ck);
        // No kernel today produces a self-edge; make one so "listed once"
        // is exercised.
        p.edges.push(VirtEdge {
            src: 0,
            dst: 0,
            operand: 0,
        });
        (p.incident_start, p.incident_edges) = incidence(p.entities.len(), &p.edges);
        for v in 0..p.entities.len() {
            let scanned: Vec<usize> = (0..p.edges.len())
                .filter(|i| p.edges[*i].src == v || p.edges[*i].dst == v)
                .collect();
            assert_eq!(p.incident(v), scanned, "entity {v}");
        }
    }

    #[test]
    fn op_candidates_are_pes() {
        let adg = presets::softbrain();
        let ck = dot_compiled(1);
        let p = Problem::new(&adg, &ck);
        for e in &p.entities {
            let c = p.candidates(e);
            assert!(!c.is_empty(), "{:?} has no candidates", e.kind);
            match e.kind {
                EntityKind::Op { .. } => {
                    assert!(c
                        .iter()
                        .all(|id| matches!(adg.kind(*id), Ok(NodeKind::Pe(_)))));
                }
                _ => {
                    assert!(c
                        .iter()
                        .all(|id| matches!(adg.kind(*id), Ok(NodeKind::Sync(_)))));
                }
            }
        }
    }

    #[test]
    fn stream_join_requires_capable_pe() {
        // Build a join kernel and check candidates only exist on SPU.
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 768, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 768, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("j", 1.0);
        let j = r.join_loop(
            dsagen_dfg::JoinSide {
                key: k0,
                payloads: vec![],
                len: 768,
            },
            dsagen_dfg::JoinSide {
                key: k1,
                payloads: vec![],
                len: 768,
            },
            0.5,
        );
        let a = r.load(k0, AffineExpr::var(j));
        let b = r.load(k1, AffineExpr::var(j));
        let p = r.bin(Opcode::Mul, a, b);
        let acc = r.reduce(Opcode::Add, p, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let spu = presets::spu();
        let ck = compile_kernel(
            &kernel,
            &TransformConfig {
                stream_join: true,
                ..TransformConfig::fallback()
            },
            &spu.features(),
        )
        .unwrap();
        let prob_spu = Problem::new(&spu, &ck);
        let join_entity = prob_spu
            .entities
            .iter()
            .find(|e| e.needs_stream_join)
            .unwrap();
        assert!(!prob_spu.candidates(join_entity).is_empty());

        let soft = presets::softbrain();
        let prob_soft = Problem::new(&soft, &ck);
        let join_entity = prob_soft
            .entities
            .iter()
            .find(|e| e.needs_stream_join)
            .unwrap();
        assert!(prob_soft.candidates(join_entity).is_empty());
    }

    #[test]
    fn rates_accumulator_consumers_are_low_rate() {
        let ck = dot_compiled(1);
        let region = &ck.regions[0];
        let rates = op_rates(region);
        // Output node consumes the accumulator → rate 1/1024.
        let out_rate = region
            .dfg
            .iter()
            .find_map(|(oid, op)| matches!(op, DfgOp::Output { .. }).then(|| rates[oid.index()]))
            .unwrap();
        assert!(out_rate < 0.01, "out rate {out_rate}");
        // Mul fires every instance.
        let mul_rate = region
            .dfg
            .iter()
            .find_map(|(oid, op)| match op {
                DfgOp::Compute {
                    op: Opcode::Mul, ..
                } => Some(rates[oid.index()]),
                _ => None,
            })
            .unwrap();
        assert_eq!(mul_rate, 1.0);
    }

    #[test]
    fn unrolled_problem_has_more_entities() {
        let adg = presets::softbrain();
        let ck1 = dot_compiled(1);
        let ck4 = dot_compiled(4);
        let p1 = Problem::new(&adg, &ck1);
        let p4 = Problem::new(&adg, &ck4);
        assert!(p4.entities.len() > p1.entities.len());
        assert!(p4.edges.len() > p1.edges.len());
    }
}
