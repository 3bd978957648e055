//! Fault-isolation **recovery domains**: a partition of a scheduled
//! kernel's regions by the fabric resources their mapping touches.
//!
//! Two regions belong to the same domain when a single hardware fault (or
//! the repair that follows it) can perturb both:
//!
//! * they share a **fault-plane resource** — a placed node, a routed
//!   link, or one region routes *through* a node the other has an entity
//!   placed on. Runtime faults strike exactly these resources
//!   ([`crate::runtime`] resolves victims against placements and routes).
//!   Two regions whose routes merely turn through the same *switch* stay
//!   in separate domains: the engine models no switch-level timing
//!   interaction (feasible schedules never share a link between distinct
//!   values), so a fault on one region's link cannot perturb the other.
//!   The one victim class that can still afflict both — a stuck shared
//!   switch — resolves to a region set spanning domains, which
//!   [`RecoveryDomains::domain_of_regions`] reports as `None` and
//!   recovery handles at whole-kernel scope; and
//! * they execute in the **same pipeline group** and bind streams to the
//!   same **memory node** — the engine arbitrates one request per memory
//!   per cycle across all live streams, so co-resident regions sharing a
//!   memory influence each other's cycle-by-cycle timing even when their
//!   fabric footprints are disjoint. Regions in *different* groups never
//!   share a cycle (groups run sequentially), so memory sharing across
//!   groups does not merge domains: their group-local timelines stay
//!   independent.
//!
//! The partition is what lets recovery bound its blast radius: rollback
//! can be sliced to the afflicted domain
//! ([`crate::runtime::RuntimeSim::restore_scoped`]), repair can pin every
//! other domain's placements (the `scope` of a [`dsagen_scheduler::Start::Repair`]), and
//! the DSE can reward designs whose largest domain — the worst-case
//! recovery scope — stays small.

use std::collections::{BTreeMap, BTreeSet};

use dsagen_adg::{Adg, EdgeId, NodeId};
use dsagen_dfg::CompiledKernel;
use dsagen_scheduler::{Problem, Schedule};

use crate::engine::pipeline_groups;

/// One region's resource footprint: everything a fault or a repair of this
/// region can touch.
#[derive(Debug, Clone, Default)]
struct Footprint {
    /// Placed nodes (PEs, ports).
    nodes: BTreeSet<NodeId>,
    /// Nodes its routes turn through (including its own endpoints).
    turns: BTreeSet<NodeId>,
    /// Routed links.
    edges: BTreeSet<EdgeId>,
    /// Bound memory nodes (dynamic arbitration coupling).
    mems: BTreeSet<NodeId>,
}

/// The fault-isolation partition of a scheduled kernel's regions. Derived
/// from a concrete `(Adg, CompiledKernel, Schedule)` triple; recompute
/// after a repair changes the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryDomains {
    /// Domain id per region.
    region_domain: Vec<usize>,
    /// Regions per domain, each sorted ascending.
    domains: Vec<Vec<usize>>,
}

impl RecoveryDomains {
    /// Partitions `kernel`'s regions into recovery domains under
    /// `schedule` on `adg`.
    #[must_use]
    pub fn derive(adg: &Adg, kernel: &CompiledKernel, schedule: &Schedule) -> Self {
        let problem = Problem::new(adg, kernel);
        let stream_mems = schedule.stream_memories(&problem);
        let n = kernel.regions.len();
        let groups = pipeline_groups(kernel);
        let mut region_group = vec![0usize; n];
        for (gi, group) in groups.iter().enumerate() {
            for &ri in group {
                region_group[ri] = gi;
            }
        }

        let mut feet: Vec<Footprint> = vec![Footprint::default(); n];
        for (i, ent) in problem.entities.iter().enumerate() {
            if let Some(node) = schedule.placement.get(i).copied().flatten() {
                feet[ent.region()].nodes.insert(node);
            }
        }
        for (idx, path) in &schedule.routes {
            let Some(ri) = problem
                .edges
                .get(*idx)
                .and_then(|v| problem.entities.get(v.src))
                .map(dsagen_scheduler::Entity::region)
            else {
                continue;
            };
            for eid in path {
                feet[ri].edges.insert(*eid);
                if let Some(e) = adg.edge(*eid) {
                    feet[ri].turns.insert(e.src);
                    feet[ri].turns.insert(e.dst);
                }
            }
        }
        for (&(ri, _, _), &mem) in &stream_mems {
            if ri < n {
                feet[ri].mems.insert(mem);
            }
        }

        // Union-find over regions.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                parent[hi] = lo;
            }
        };
        for a in 0..n {
            for b in (a + 1)..n {
                // Shared placement, shared links, or one region routing
                // through the other's placed hardware couple the fault
                // plane; shared switches alone do not (no modelled timing
                // interaction, and the rare stuck-shared-switch victim
                // falls back to whole-kernel scope via
                // `domain_of_regions` returning `None`).
                let fault_shared = !feet[a].nodes.is_disjoint(&feet[b].nodes)
                    || !feet[a].edges.is_disjoint(&feet[b].edges)
                    || !feet[a].nodes.is_disjoint(&feet[b].turns)
                    || !feet[b].nodes.is_disjoint(&feet[a].turns);
                let mem_shared =
                    region_group[a] == region_group[b] && !feet[a].mems.is_disjoint(&feet[b].mems);
                if fault_shared || mem_shared {
                    union(&mut parent, a, b);
                }
            }
        }

        // Number domains by their smallest region index.
        let mut root_domain: BTreeMap<usize, usize> = BTreeMap::new();
        let mut region_domain = vec![0usize; n];
        for (ri, slot) in region_domain.iter_mut().enumerate() {
            let root = find(&mut parent, ri);
            let next = root_domain.len();
            *slot = *root_domain.entry(root).or_insert(next);
        }
        let mut domains: Vec<Vec<usize>> = vec![Vec::new(); root_domain.len()];
        for (ri, &d) in region_domain.iter().enumerate() {
            domains[d].push(ri);
        }
        RecoveryDomains {
            region_domain,
            domains,
        }
    }

    /// Number of domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the kernel has no regions at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Number of regions partitioned.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.region_domain.len()
    }

    /// Domain of one region.
    #[must_use]
    pub fn domain_of(&self, region: usize) -> Option<usize> {
        self.region_domain.get(region).copied()
    }

    /// The single domain containing every region of `regions`, or `None`
    /// when they span domains (defensive: the affected regions of one
    /// fault victim always share a domain by construction) or the list is
    /// empty.
    #[must_use]
    pub fn domain_of_regions(&self, regions: &[usize]) -> Option<usize> {
        let mut it = regions.iter().map(|&r| self.domain_of(r));
        let first = it.next().flatten()?;
        it.all(|d| d == Some(first)).then_some(first)
    }

    /// Regions of one domain (sorted ascending).
    #[must_use]
    pub fn regions_in(&self, domain: usize) -> &[usize] {
        self.domains.get(domain).map_or(&[], Vec::as_slice)
    }

    /// The largest number of regions in one domain.
    #[must_use]
    pub fn max_domain_regions(&self) -> usize {
        self.domains.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::SchedulerConfig;

    use crate::tests::fresh;

    use super::*;

    fn dot(n: u64) -> dsagen_dfg::Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", dsagen_adg::BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", dsagen_adg::BitWidth::B64, n, MemClass::MainMemory);
        let c = k.array("c", dsagen_adg::BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(dsagen_adg::Opcode::Mul, va, vb);
        let acc = r.reduce(dsagen_adg::Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    #[test]
    fn single_region_kernel_is_one_domain() {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal());
        let d = RecoveryDomains::derive(&adg, &ck, &s.schedule);
        assert_eq!(d.len(), 1);
        assert_eq!(d.region_count(), 1);
        assert_eq!(d.domain_of(0), Some(0));
        assert_eq!(d.regions_in(0), &[0]);
        assert_eq!(d.domain_of_regions(&[0]), Some(0));
        assert_eq!(d.max_domain_regions(), 1);
    }

    #[test]
    fn sequential_regions_with_shared_fabric_merge_into_one_domain() {
        // Two regions scheduled on the same small fabric overlap in
        // placement or routing; the partition must merge them rather than
        // promise isolation the hardware cannot deliver.
        let mut k = KernelBuilder::new("two");
        let a = k.array("a", dsagen_adg::BitWidth::B64, 64, MemClass::MainMemory);
        let b = k.array("b", dsagen_adg::BitWidth::B64, 64, MemClass::MainMemory);
        let mut r0 = k.region("first", 1.0);
        let i0 = r0.for_loop(TripCount::fixed(64), true);
        let v0 = r0.load(a, AffineExpr::var(i0));
        let two = r0.imm(2);
        let w0 = r0.bin(dsagen_adg::Opcode::Mul, v0, two);
        r0.store(a, AffineExpr::var(i0), w0);
        k.finish_region(r0);
        let mut r1 = k.region("second", 1.0);
        let i1 = r1.for_loop(TripCount::fixed(64), true);
        let v1 = r1.load(b, AffineExpr::var(i1));
        let three = r1.imm(3);
        let w1 = r1.bin(dsagen_adg::Opcode::Add, v1, three);
        r1.store(b, AffineExpr::var(i1), w1);
        k.finish_region(r1);
        let kernel = k.build().unwrap();
        let adg = presets::softbrain();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal(), "eval: {:?}", s.eval);
        let d = RecoveryDomains::derive(&adg, &ck, &s.schedule);
        assert_eq!(d.region_count(), 2);
        // Whatever the scheduler chose, the invariants hold: every region
        // has a domain, domains partition the regions, and a fault's
        // affected regions (any single region here) resolve to one domain.
        let total: usize = (0..d.len()).map(|i| d.regions_in(i).len()).sum();
        assert_eq!(total, 2);
        for ri in 0..2 {
            let dom = d.domain_of(ri).unwrap();
            assert!(d.regions_in(dom).contains(&ri));
        }
    }

    #[test]
    fn derive_is_deterministic() {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let a = RecoveryDomains::derive(&adg, &ck, &s.schedule);
        let b = RecoveryDomains::derive(&adg, &ck, &s.schedule);
        assert_eq!(a, b);
    }
}
