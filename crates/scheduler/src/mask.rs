//! Capability masks: quarantine damaged hardware below whole-fabric
//! granularity.
//!
//! A mask names links and nodes to take offline. [`CapabilityMask::apply`]
//! removes them from a scratch copy of the ADG, and a [`crate::Start::Repair`]
//! runs against that copy, so the scheduler reroutes around exactly the
//! damage and nothing more. The recovery ladder in `dsagen_sim::recovery`
//! masks the afflicted link first, then its whole node.
//!
//! A mask is data, not policy: [`CapabilityMask::apply`] either yields a
//! still-valid degraded ADG or a typed [`MaskError`], so a rung whose
//! mask would break graph validity is skipped (escalating to the next
//! rung) rather than panicking mid-recovery.

use std::collections::BTreeSet;
use std::fmt;

use dsagen_adg::{Adg, EdgeId, NodeId};

/// A set of hardware capabilities to take offline, at two granularities:
/// single links (a dead port is the one link occupying it) and whole nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapabilityMask {
    /// Edges to remove outright.
    pub edges: BTreeSet<EdgeId>,
    /// Nodes to decommission entirely (with all their links).
    pub nodes: BTreeSet<NodeId>,
}

/// Why a mask could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskError {
    /// A masked element does not exist.
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

    /// Masks a whole node (builder style).
    #[must_use]
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.nodes.insert(node);
        self
    }

    /// Human-readable labels for every masked capability, for
    /// `RecoveryReport::masked_resources` and telemetry.
    #[must_use]
    pub fn describe(&self, adg: &Adg) -> Vec<String> {
        let mut out = Vec::new();
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

    /// Applies the mask to a scratch copy of `adg`: removes masked edges,
    /// then masked nodes, and validates the result.
    ///
    /// Errors are typed so the degradation ladder can treat an infeasible
    /// rung as "escalate", never as a panic: [`MaskError::Missing`] when a
    /// masked element does not exist, [`MaskError::Invalid`] when the
    /// masked fabric no longer validates.
    pub fn apply(&self, adg: &Adg) -> Result<Adg, MaskError> {
        let mut out = adg.clone();
        for &edge in &self.edges {
            out.remove_edge(edge)
                .map_err(|_| MaskError::Missing(format!("edge {edge}")))?;
        }
        for &node in &self.nodes {
            out.remove_node(node)
                .map_err(|_| MaskError::Missing(format!("node {node}")))?;
        }
        out.validate()
            .map_err(|e| MaskError::Invalid(e.to_string()))?;
        Ok(out)
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
        // A dead port is the one link occupying it: find a node with more
        // than one input whose link can be masked.
        let victim = adg
            .nodes()
            .filter(|n| adg.in_edges(n.id()).count() > 1)
            .flat_map(|n| adg.in_edges(n.id()).map(move |e| (n.id(), e.id())))
            .find_map(|(n, eid)| {
                let masked = CapabilityMask::new().with_edge(eid).apply(&adg).ok()?;
                Some((n, eid, masked))
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
        assert!(
            masked.edges().all(|e| e.src != pe && e.dst != pe),
            "links must go with the node"
        );
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
            .with_edge(dsagen_adg::EdgeId::from_index(99_999))
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

        // Pick a link into a multi-input node where both the link and its
        // owner mask.
        let (node, eid) = adg
            .nodes()
            .filter(|n| adg.in_edges(n.id()).count() > 1)
            .flat_map(|n| adg.in_edges(n.id()).map(move |e| (n.id(), e.id())))
            .find(|&(n, eid)| {
                CapabilityMask::new().with_edge(eid).apply(&adg).is_ok()
                    && CapabilityMask::new().with_node(n).apply(&adg).is_ok()
            })
            .expect("softbrain has a maskable port whose node also masks");

        let node_masked = CapabilityMask::new().with_node(node).apply(&adg).unwrap();
        let port_masked = CapabilityMask::new().with_edge(eid).apply(&adg).unwrap();
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
