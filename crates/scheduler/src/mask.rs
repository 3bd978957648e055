//! Capability masks: quarantine damaged hardware at sub-node granularity.
//!
//! PR 5's recovery path was all-or-nothing — any permanent fault
//! decommissioned the whole victim node or link. A capability mask lets
//! repair express *"this node works except input port 2"*: masked edges,
//! ports, and nodes are removed from a scratch copy of the ADG and a
//! [`crate::Start::Repair`] runs against that, so the scheduler reroutes
//! around exactly the damage and nothing more. Masks compose the
//! degradation ladder's structural rungs (port → node) used by
//! `dsagen_sim::recovery`:
//!
//! 1. mask the afflicted **port** only (cheap repair, everything else on
//!    the node keeps serving);
//! 2. same mask, escalated repair budget;
//! 3. decommission the whole **node** — the pre-existing fail-stop
//!    behaviour, now the *last* structural rung instead of the only one.
//!
//! A mask is data, not policy: [`CapabilityMask::apply`] either yields a
//! still-valid degraded ADG or a typed [`MaskError`], so a rung whose
//! mask would break graph validity is skipped (escalating to the next
//! rung) rather than panicking mid-recovery.

use std::collections::BTreeSet;
use std::fmt;

use dsagen_adg::{Adg, EdgeId, NodeId};

/// A set of hardware capabilities to take offline, at three granularities:
/// whole nodes, whole edges, and single input ports (a `(node, port)` pair
/// — masked by removing the one edge occupying that port slot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityMask {
    /// Edges to remove outright.
    pub edges: BTreeSet<EdgeId>,
    /// Input ports to remove, as `(owner node, input port index)`. The
    /// port index is the edge's position in the owner's input adjacency
    /// (`Adg::input_port_of`).
    pub ports: BTreeSet<(NodeId, usize)>,
    /// Nodes to decommission entirely (with all their links).
    pub nodes: BTreeSet<NodeId>,
}

/// Why a mask could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskError {
    /// A masked element does not exist (or a port index is out of range).
    Missing(String),
    /// Removing the masked elements broke graph validity — the mask is
    /// structurally infeasible on this fabric (for example masking the
    /// only config path to a live component).
    Invalid(String),
}

impl fmt::Display for MaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskError::Missing(s) => write!(f, "masked element missing: {s}"),
            MaskError::Invalid(s) => write!(f, "mask breaks validity: {s}"),
        }
    }
}

impl std::error::Error for MaskError {}

impl CapabilityMask {
    /// An empty mask (masks nothing; `apply` is a validated clone).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Masks one edge (builder style).
    #[must_use]
    pub fn with_edge(mut self, edge: EdgeId) -> Self {
        self.edges.insert(edge);
        self
    }

    /// Masks one input port of `node` (builder style).
    #[must_use]
    pub fn with_port(mut self, node: NodeId, port: usize) -> Self {
        self.ports.insert((node, port));
        self
    }

    /// Masks a whole node (builder style).
    #[must_use]
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.nodes.insert(node);
        self
    }

    /// Whether the mask masks nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.ports.is_empty() && self.nodes.is_empty()
    }

    /// Human-readable labels for every masked capability, for
    /// `RecoveryOutcome::Degraded { masked_resources }` and telemetry.
    #[must_use]
    pub fn describe(&self, adg: &Adg) -> Vec<String> {
        let mut out = Vec::new();
        for &(node, port) in &self.ports {
            out.push(format!("port {port} of {node}"));
        }
        for &edge in &self.edges {
            match adg.edge(edge) {
                Some(e) => out.push(format!("link {} -> {}", e.src, e.dst)),
                None => out.push(format!("link {edge}")),
            }
        }
        for &node in &self.nodes {
            let label = adg
                .node(node)
                .and_then(|n| n.label.clone())
                .unwrap_or_else(|| node.to_string());
            out.push(format!("node {label}"));
        }
        out
    }

    /// Applies the mask to a scratch copy of `adg`: removes masked ports'
    /// edges, masked edges, then masked nodes, and validates the result.
    ///
    /// Errors are typed so the degradation ladder can treat an infeasible
    /// rung as "escalate", never as a panic: [`MaskError::Missing`] when a
    /// masked element does not exist, [`MaskError::Invalid`] when the
    /// masked fabric no longer validates.
    pub fn apply(&self, adg: &Adg) -> Result<Adg, MaskError> {
        let mut out = adg.clone();
        // Ports first: indices are positions in the *current* input
        // adjacency, so resolve them against the untouched graph.
        for &(node, port) in &self.ports {
            let eid = adg
                .in_edges(node)
                .nth(port)
                .map(dsagen_adg::Edge::id)
                .ok_or_else(|| MaskError::Missing(format!("port {port} of {node}")))?;
            if out.edge(eid).is_some() {
                out.remove_edge(eid)
                    .map_err(|e| MaskError::Missing(e.to_string()))?;
            }
        }
        for &edge in &self.edges {
            if adg.edge(edge).is_none() {
                return Err(MaskError::Missing(format!("edge {edge}")));
            }
            if out.edge(edge).is_some() {
                out.remove_edge(edge)
                    .map_err(|e| MaskError::Missing(e.to_string()))?;
            }
        }
        for &node in &self.nodes {
            if adg.node(node).is_none() {
                return Err(MaskError::Missing(format!("node {node}")));
            }
            out.remove_node(node)
                .map_err(|e| MaskError::Missing(e.to_string()))?;
        }
        out.validate()
            .map_err(|e| MaskError::Invalid(e.to_string()))?;
        Ok(out)
    }
}

impl fmt::Display for CapabilityMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mask({} port(s), {} edge(s), {} node(s))",
            self.ports.len(),
            self.edges.len(),
            self.nodes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, CompiledKernel, KernelBuilder, MemClass, TransformConfig,
        TripCount,
    };

    use dsagen_telemetry::Telemetry;

    use super::*;
    use crate::{evaluate, schedule, Problem, ScheduleResult, SchedulerConfig, Start, Weights};

    fn fresh(adg: &Adg, kernel: &CompiledKernel, cfg: &SchedulerConfig) -> ScheduleResult {
        schedule(adg, kernel, &Start::Empty, cfg, &Telemetry::disabled())
            .expect("nothing is pinned")
    }

    fn dot_kernel(adg: &Adg) -> CompiledKernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(256), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        compile_kernel(
            &k.build().unwrap(),
            &TransformConfig::fallback(),
            &adg.features(),
        )
        .unwrap()
    }

    #[test]
    fn empty_mask_is_identity_modulo_validation() {
        let adg = presets::softbrain();
        let masked = CapabilityMask::new().apply(&adg).unwrap();
        assert_eq!(masked, adg);
    }

    #[test]
    fn port_mask_removes_exactly_that_edge() {
        let adg = presets::softbrain();
        // Find a node with >1 input ports whose port-0 edge is removable.
        let victim = adg
            .nodes()
            .flat_map(|n| adg.in_edges(n.id()).map(move |e| (n.id(), e.id())))
            .filter(|(n, _)| adg.in_edges(*n).count() > 1)
            .find_map(|(n, eid)| {
                let port = adg.input_port_of(eid).unwrap();
                CapabilityMask::new()
                    .with_port(n, port)
                    .apply(&adg)
                    .ok()
                    .map(|m| (n, eid, m))
            });
        let (node, eid, masked) = victim.expect("some port must be maskable");
        assert!(masked.edge(eid).is_none(), "masked port's edge survives");
        assert_eq!(masked.edge_count(), adg.edge_count() - 1);
        assert!(masked.node(node).is_some(), "owner must survive");
    }

    #[test]
    fn node_mask_decommissions_with_links() {
        let adg = presets::softbrain();
        let pe = adg
            .pes()
            .find(|&pe| CapabilityMask::new().with_node(pe).apply(&adg).is_ok())
            .expect("some PE must be decommissionable");
        let masked = CapabilityMask::new().with_node(pe).apply(&adg).unwrap();
        assert!(masked.node(pe).is_none());
        assert!(masked
            .edges()
            .all(|e| e.src != pe && e.dst != pe), "links must go with the node");
    }

    #[test]
    fn missing_elements_error_typed() {
        let adg = presets::softbrain();
        let bogus_node = dsagen_adg::NodeId::from_index(9999);
        let err = CapabilityMask::new()
            .with_node(bogus_node)
            .apply(&adg)
            .unwrap_err();
        assert!(matches!(err, MaskError::Missing(_)), "{err}");
        let err = CapabilityMask::new()
            .with_port(bogus_node, 0)
            .apply(&adg)
            .unwrap_err();
        assert!(matches!(err, MaskError::Missing(_)), "{err}");
    }

    #[test]
    fn infeasible_mask_errors_instead_of_corrupting() {
        let adg = presets::softbrain();
        // Masking the control core (or everything) must fail validation,
        // not produce a broken graph.
        let ctrl = adg.control().expect("presets have a control core");
        let err = CapabilityMask::new().with_node(ctrl).apply(&adg);
        assert!(err.is_err(), "removing the control core must not validate");
    }

    #[test]
    fn port_mask_is_a_refinement_of_node_mask() {
        // Any route/placement legal on the node-decommissioned fabric is
        // legal on the port-masked fabric: the port mask removes a strict
        // subset of the node mask's hardware.
        let adg = presets::softbrain();
        let kernel = dot_kernel(&adg);
        let cfg = SchedulerConfig::default();
        let base = fresh(&adg, &kernel, &cfg);
        assert!(base.is_legal(), "baseline must schedule");

        // Pick a maskable (node, port) pair.
        let (node, port) = adg
            .nodes()
            .flat_map(|n| adg.in_edges(n.id()).map(move |e| (n.id(), e.id())))
            .filter(|(n, _)| adg.in_edges(*n).count() > 1)
            .find_map(|(n, eid)| {
                let port = adg.input_port_of(eid)?;
                CapabilityMask::new().with_port(n, port).apply(&adg).ok()?;
                CapabilityMask::new().with_node(n).apply(&adg).ok()?;
                Some((n, port))
            })
            .expect("softbrain has a maskable port whose node also masks");

        let node_masked = CapabilityMask::new().with_node(node).apply(&adg).unwrap();
        let port_masked = CapabilityMask::new()
            .with_port(node, port)
            .apply(&adg)
            .unwrap();
        let under_node = fresh(&node_masked, &kernel, &cfg);
        if under_node.is_legal() {
            // Evaluate the node-masked schedule against the port-masked
            // fabric: every placement/route must still be legal.
            let problem = Problem::new(&port_masked, &kernel);
            let eval = evaluate(&problem, &under_node.schedule, &Weights::default());
            assert!(
                eval.feasible,
                "schedule legal under node mask must stay legal under port mask"
            );
        }
    }
}
