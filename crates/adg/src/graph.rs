//! The architecture description graph itself.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AdgError, BitWidth, CtrlSpec, EdgeId, NodeId, NodeKind, Scheduling};

/// One hardware component instance in the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    /// The component's kind and parameters.
    pub kind: NodeKind,
    /// Optional human-readable label (used in DOT export and diagnostics).
    pub label: Option<String>,
}

impl Node {
    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }
}

/// A direct point-to-point connection between two components (§III-A
/// "Connections").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    id: EdgeId,
    /// Producing node.
    pub src: NodeId,
    /// Consuming node.
    pub dst: NodeId,
    /// Width of the connection.
    pub width: BitWidth,
}

impl Edge {
    /// This edge's id.
    #[must_use]
    pub fn id(&self) -> EdgeId {
        self.id
    }
}

/// An architecture description graph: components plus connections.
///
/// Node and edge ids are stable across removals (tombstoned slots), which
/// the DSE's schedule-repair relies on: deleting one PE invalidates only the
/// schedule entries that referenced it (§V-A).
///
/// # Example
///
/// ```
/// use dsagen_adg::*;
///
/// let mut adg = Adg::new("tiny");
/// let ctrl = adg.add_control(CtrlSpec::new());
/// let mem = adg.add_memory(MemSpec::main_memory());
/// let inp = adg.add_sync(SyncSpec::new(8));
/// let pe = adg.add_pe(PeSpec::new(Scheduling::Static, Sharing::Dedicated, OpSet::integer_alu()));
/// let out = adg.add_sync(SyncSpec::new(8));
/// adg.add_link(mem, inp)?;
/// adg.add_link(inp, pe)?;
/// adg.add_link(pe, out)?;
/// adg.add_link(out, mem)?;
/// adg.add_link(ctrl, mem)?;
/// adg.validate()?;
/// # Ok::<(), AdgError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adg {
    name: String,
    nodes: Vec<Option<Node>>,
    edges: Vec<Option<Edge>>,
    /// Outgoing edge ids per node slot.
    #[serde(skip)]
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming edge ids per node slot.
    #[serde(skip)]
    in_adj: Vec<Vec<EdgeId>>,
}

impl Adg {
    /// Creates an empty graph with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Adg {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
        }
    }

    /// The graph's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Rebuilds adjacency indices (needed after deserialization, where the
    /// adjacency vectors are skipped).
    pub fn rebuild_adjacency(&mut self) {
        self.out_adj = vec![Vec::new(); self.nodes.len()];
        self.in_adj = vec![Vec::new(); self.nodes.len()];
        for e in self.edges.iter().flatten() {
            self.out_adj[e.src.index()].push(e.id);
            self.in_adj[e.dst.index()].push(e.id);
        }
    }

    // ---------------------------------------------------------------- nodes

    /// Adds a node of arbitrary kind and returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Node {
            id,
            kind,
            label: None,
        }));
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a labeled node.
    pub fn add_labeled(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = self.add_node(kind);
        self.nodes[id.index()].as_mut().expect("just added").label = Some(label.into());
        id
    }

    /// Adds a processing element.
    pub fn add_pe(&mut self, spec: crate::PeSpec) -> NodeId {
        self.add_node(NodeKind::Pe(spec))
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, spec: crate::SwitchSpec) -> NodeId {
        self.add_node(NodeKind::Switch(spec))
    }

    /// Adds a delay element.
    pub fn add_delay(&mut self, spec: crate::DelaySpec) -> NodeId {
        self.add_node(NodeKind::Delay(spec))
    }

    /// Adds a synchronization element.
    pub fn add_sync(&mut self, spec: crate::SyncSpec) -> NodeId {
        self.add_node(NodeKind::Sync(spec))
    }

    /// Adds a memory.
    pub fn add_memory(&mut self, spec: crate::MemSpec) -> NodeId {
        self.add_node(NodeKind::Memory(spec))
    }

    /// Adds the control core.
    pub fn add_control(&mut self, spec: CtrlSpec) -> NodeId {
        self.add_node(NodeKind::Control(spec))
    }

    /// Removes a node and every incident edge. Returns the removed node.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::UnknownNode`] if the node does not exist.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Node, AdgError> {
        let slot = self
            .nodes
            .get_mut(id.index())
            .ok_or(AdgError::UnknownNode(id))?;
        let node = slot.take().ok_or(AdgError::UnknownNode(id))?;
        let incident: Vec<EdgeId> = self.out_adj[id.index()]
            .iter()
            .chain(self.in_adj[id.index()].iter())
            .copied()
            .collect();
        for eid in incident {
            // Self-loops appear in both lists; removal is idempotent here.
            let _ = self.remove_edge(eid);
        }
        Ok(node)
    }

    /// Looks up a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Looks up a node mutably.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// The kind of a node, or an error if it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::UnknownNode`] if the node does not exist.
    pub fn kind(&self, id: NodeId) -> Result<&NodeKind, AdgError> {
        self.node(id).map(|n| &n.kind).ok_or(AdgError::UnknownNode(id))
    }

    /// Iterates over live nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter().flatten()
    }

    /// Number of live nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Upper bound on node indices (length of the slot vector); useful for
    /// dense side tables keyed by [`NodeId::index`].
    #[must_use]
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    // ---------------------------------------------------------------- edges

    /// Connects `src` to `dst` with the narrower of the two endpoint widths
    /// (or 64 bits when neither endpoint constrains the width).
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::UnknownNode`] if either endpoint does not exist.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId) -> Result<EdgeId, AdgError> {
        let src_w = self.kind(src)?.bitwidth();
        let dst_w = self.kind(dst)?.bitwidth();
        let width = match (src_w, dst_w) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => BitWidth::B64,
        };
        self.add_link_with_width(src, dst, width)
    }

    /// Connects `src` to `dst` with an explicit width.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::UnknownNode`] if either endpoint does not exist.
    pub fn add_link_with_width(
        &mut self,
        src: NodeId,
        dst: NodeId,
        width: BitWidth,
    ) -> Result<EdgeId, AdgError> {
        if self.node(src).is_none() {
            return Err(AdgError::UnknownNode(src));
        }
        if self.node(dst).is_none() {
            return Err(AdgError::UnknownNode(dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(Edge { id, src, dst, width }));
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        Ok(id)
    }

    /// Removes an edge. Returns the removed edge.
    ///
    /// # Errors
    ///
    /// Returns [`AdgError::UnknownEdge`] if the edge does not exist.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<Edge, AdgError> {
        let slot = self
            .edges
            .get_mut(id.index())
            .ok_or(AdgError::UnknownEdge(id))?;
        let edge = slot.take().ok_or(AdgError::UnknownEdge(id))?;
        self.out_adj[edge.src.index()].retain(|e| *e != id);
        self.in_adj[edge.dst.index()].retain(|e| *e != id);
        Ok(edge)
    }

    /// Looks up an edge.
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.index()).and_then(Option::as_ref)
    }

    /// Iterates over live edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter().flatten()
    }

    /// Number of live edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().flatten().count()
    }

    /// Upper bound on edge indices (length of the slot vector, tombstones
    /// included); the twin of [`Adg::node_slots`] for dense side tables keyed
    /// by [`EdgeId::index`].
    #[must_use]
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of a node (empty for unknown nodes).
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.out_adj
            .get(id.index())
            .into_iter()
            .flatten()
            .filter_map(move |eid| self.edge(*eid))
    }

    /// Incoming edges of a node (empty for unknown nodes).
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_adj
            .get(id.index())
            .into_iter()
            .flatten()
            .filter_map(move |eid| self.edge(*eid))
    }

    /// The input-port index of `edge` at its destination node, i.e. its
    /// position among the destination's incoming edges.
    #[must_use]
    pub fn input_port_of(&self, edge: EdgeId) -> Option<usize> {
        let e = self.edge(edge)?;
        self.in_adj[e.dst.index()].iter().position(|x| *x == edge)
    }

    /// The output-port index of `edge` at its source node.
    #[must_use]
    pub fn output_port_of(&self, edge: EdgeId) -> Option<usize> {
        let e = self.edge(edge)?;
        self.out_adj[e.src.index()].iter().position(|x| *x == edge)
    }

    /// Successor node ids (one entry per outgoing edge).
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(id).map(|e| e.dst)
    }

    /// Predecessor node ids (one entry per incoming edge).
    pub fn predecessors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(id).map(|e| e.src)
    }

    // ------------------------------------------------------------- queries

    /// The unique control core, if exactly one exists.
    #[must_use]
    pub fn control(&self) -> Option<NodeId> {
        let mut it = self
            .nodes()
            .filter(|n| matches!(n.kind, NodeKind::Control(_)))
            .map(Node::id);
        match (it.next(), it.next()) {
            (Some(id), None) => Some(id),
            _ => None,
        }
    }

    /// Ids of the nodes whose kind passes `is`, in id order.
    fn nodes_where(&self, is: fn(&NodeKind) -> bool) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |n| is(&n.kind)).map(Node::id)
    }

    /// All memory node ids.
    pub fn memories(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Memory(_)))
    }

    /// All PE node ids.
    pub fn pes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Pe(_)))
    }

    /// All sync-element node ids.
    pub fn syncs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Sync(_)))
    }

    /// All switch node ids.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_where(|k| matches!(k, NodeKind::Switch(_)))
    }

    /// Breadth-first distances (in hops, ignoring direction) from `from` to
    /// every node; unreachable nodes get `None`. Used by the configuration
    /// path generator and DSE mutation locality.
    #[must_use]
    pub fn undirected_distances(&self, from: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.nodes.len()];
        if self.node(from).is_none() {
            return dist;
        }
        dist[from.index()] = Some(0);
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.index()].expect("queued nodes have distances");
            let neighbors: Vec<NodeId> = self
                .successors(n)
                .chain(self.predecessors(n))
                .collect();
            for m in neighbors {
                if dist[m.index()].is_none() {
                    dist[m.index()] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    // ----------------------------------------------------------- validation

    /// Checks the composition rules of §III-B.
    ///
    /// # Errors
    ///
    /// * [`AdgError::ControlCount`] — not exactly one control core;
    /// * [`AdgError::EdgeWiderThanEndpoint`] — an edge wider than either
    ///   endpoint's datapath;
    /// * [`AdgError::MemoryFeedsStatic`] — a memory wired into a static
    ///   element without a sync element;
    /// * [`AdgError::BadParameter`] — structurally impossible parameters
    ///   (zero-slot shared PE, zero-depth sync, stream-join on a static PE,
    ///   zero-bank or zero-width memory);
    /// * [`AdgError::Unconfigurable`] — a configurable component unreachable
    ///   from the control core.
    pub fn validate(&self) -> Result<(), AdgError> {
        let ctrl_count = self
            .nodes()
            .filter(|n| matches!(n.kind, NodeKind::Control(_)))
            .count();
        if ctrl_count != 1 {
            return Err(AdgError::ControlCount(ctrl_count));
        }

        for node in self.nodes() {
            match &node.kind {
                NodeKind::Pe(pe) => {
                    if pe.sharing.instruction_slots() == 0 {
                        return Err(AdgError::BadParameter {
                            node: node.id,
                            what: "shared PE with zero instruction slots",
                        });
                    }
                    if pe.stream_join && !pe.scheduling.is_dynamic() {
                        return Err(AdgError::BadParameter {
                            node: node.id,
                            what: "stream-join requires dynamic scheduling",
                        });
                    }
                }
                NodeKind::Sync(sy) => {
                    if sy.depth == 0 || sy.lanes == 0 {
                        return Err(AdgError::BadParameter {
                            node: node.id,
                            what: "sync element needs nonzero depth and lanes",
                        });
                    }
                }
                NodeKind::Memory(m) => {
                    if m.banks == 0 || m.width_bytes == 0 || m.num_streams == 0 {
                        return Err(AdgError::BadParameter {
                            node: node.id,
                            what: "memory needs nonzero banks, width, and streams",
                        });
                    }
                    if !m.controllers.linear && !m.controllers.indirect {
                        return Err(AdgError::BadParameter {
                            node: node.id,
                            what: "memory needs at least one stream controller",
                        });
                    }
                }
                NodeKind::Switch(_) | NodeKind::Delay(_) | NodeKind::Control(_) => {}
            }
        }

        for edge in self.edges() {
            let src = self.kind(edge.src)?;
            let dst = self.kind(edge.dst)?;
            for (node, kind) in [(edge.src, src), (edge.dst, dst)] {
                if let Some(w) = kind.bitwidth() {
                    if edge.width > w {
                        return Err(AdgError::EdgeWiderThanEndpoint {
                            edge: edge.id,
                            node,
                        });
                    }
                }
            }
            // Memories must feed sync elements before any static element
            // sees the data (§III-A/B). Control links are exempt: they carry
            // commands, not datapath values.
            if matches!(src, NodeKind::Memory(_))
                && dst.input_tolerance() == Scheduling::Static
                && !matches!(dst, NodeKind::Sync(_))
            {
                return Err(AdgError::MemoryFeedsStatic { edge: edge.id });
            }
        }

        // Configurability: every configurable node must be reachable from
        // the control core over undirected links.
        let ctrl = self.control().expect("checked above");
        let dist = self.undirected_distances(ctrl);
        for node in self.nodes() {
            if node.kind.is_configurable() && dist[node.id.index()].is_none() {
                return Err(AdgError::Unconfigurable { node: node.id });
            }
        }
        Ok(())
    }

    /// Whether a *value* (datapath) edge from `src` to `dst` is legal under
    /// the execution-model composition rules the compiler enforces (§III-B):
    /// dynamically-timed outputs may not feed elements that require static
    /// timing, except through sync elements.
    #[must_use]
    pub fn value_edge_legal(&self, src: NodeId, dst: NodeId) -> bool {
        let (Ok(s), Ok(d)) = (self.kind(src), self.kind(dst)) else {
            return false;
        };
        match (s.output_timing(), d.input_tolerance()) {
            // Static producer, static consumer: fine.
            (Scheduling::Static, Scheduling::Static) => true,
            // Anything into a dynamic-tolerant consumer (dynamic PE, sync,
            // memory): fine — flow control absorbs timing differences.
            (_, Scheduling::Dynamic) => true,
            // Dynamic producer into a static consumer: only legal if the
            // producer is itself a sync element (whose departures are
            // statically coordinated).
            (Scheduling::Dynamic, Scheduling::Static) => matches!(s, NodeKind::Sync(_)),
        }
    }
}

/// Equality is *semantic*: same name, same live nodes and edges at the
/// same ids. Trailing tombstoned slots and the derived adjacency indices
/// do not participate, so a graph equals its serialized-and-reparsed twin.
impl PartialEq for Adg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nodes().eq(other.nodes())
            && self.nodes().map(Node::id).eq(other.nodes().map(Node::id))
            && self.edges().eq(other.edges())
    }
}

impl fmt::Display for Adg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "adg '{}': {} nodes, {} edges",
            self.name,
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemSpec, OpSet, PeSpec, Sharing, SwitchSpec, SyncSpec};

    fn small() -> (Adg, NodeId, NodeId, NodeId, NodeId) {
        let mut adg = Adg::new("t");
        let ctrl = adg.add_control(CtrlSpec::new());
        let mem = adg.add_memory(MemSpec::main_memory());
        let sy = adg.add_sync(SyncSpec::new(8));
        let pe = adg.add_pe(PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        adg.add_link(ctrl, mem).unwrap();
        adg.add_link(mem, sy).unwrap();
        adg.add_link(sy, pe).unwrap();
        (adg, ctrl, mem, sy, pe)
    }

    #[test]
    fn add_and_query_nodes() {
        let (adg, ctrl, mem, sy, pe) = small();
        assert_eq!(adg.node_count(), 4);
        assert_eq!(adg.control(), Some(ctrl));
        assert_eq!(adg.memories().collect::<Vec<_>>(), vec![mem]);
        assert_eq!(adg.syncs().collect::<Vec<_>>(), vec![sy]);
        assert_eq!(adg.pes().collect::<Vec<_>>(), vec![pe]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        let (adg, ..) = small();
        adg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_control() {
        let mut adg = Adg::new("t");
        adg.add_memory(MemSpec::main_memory());
        assert_eq!(adg.validate(), Err(AdgError::ControlCount(0)));
    }

    #[test]
    fn validate_rejects_memory_into_static_pe() {
        let (mut adg, _, mem, _, pe) = small();
        let bad = adg.add_link(mem, pe).unwrap();
        assert_eq!(adg.validate(), Err(AdgError::MemoryFeedsStatic { edge: bad }));
    }

    #[test]
    fn validate_rejects_stream_join_on_static_pe() {
        let (mut adg, ..) = small();
        let spec = PeSpec::new(Scheduling::Static, Sharing::Dedicated, OpSet::integer_alu())
            .with_stream_join(true);
        let bad = adg.add_pe(spec);
        // Wire it so it is configurable.
        let sy = adg.syncs().next().unwrap();
        adg.add_link(sy, bad).unwrap();
        assert!(matches!(
            adg.validate(),
            Err(AdgError::BadParameter { node, .. }) if node == bad
        ));
    }

    #[test]
    fn validate_rejects_unreachable_component() {
        let (mut adg, ..) = small();
        let island = adg.add_switch(SwitchSpec::new(BitWidth::B64));
        assert_eq!(
            adg.validate(),
            Err(AdgError::Unconfigurable { node: island })
        );
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut adg, _, mem, sy, _) = small();
        let edges_before = adg.edge_count();
        adg.remove_node(sy).unwrap();
        assert_eq!(adg.node_count(), 3);
        assert_eq!(adg.edge_count(), edges_before - 2);
        assert!(adg.node(sy).is_none());
        assert_eq!(adg.out_edges(mem).count(), 0);
    }

    #[test]
    fn node_ids_stable_after_removal() {
        let (mut adg, _, mem, sy, pe) = small();
        adg.remove_node(sy).unwrap();
        assert!(adg.node(mem).is_some());
        assert!(adg.node(pe).is_some());
        let new = adg.add_pe(PeSpec::new(
            Scheduling::Dynamic,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        assert_ne!(new, sy, "fresh ids are never recycled");
    }

    #[test]
    fn slots_bound_indices_after_removal() {
        let (mut adg, _, _, sy, _) = small();
        adg.remove_node(sy).unwrap();
        assert_eq!((adg.node_slots(), adg.edge_slots()), (4, 3));
        assert_eq!((adg.node_count(), adg.edge_count()), (3, 1));
    }

    #[test]
    fn double_remove_errors() {
        let (mut adg, _, _, sy, _) = small();
        adg.remove_node(sy).unwrap();
        assert_eq!(adg.remove_node(sy), Err(AdgError::UnknownNode(sy)));
    }

    #[test]
    fn value_edge_legality() {
        let (mut adg, _, mem, sy, static_pe) = small();
        let dyn_pe = adg.add_pe(PeSpec::new(
            Scheduling::Dynamic,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        // memory → sync: legal; memory → static PE: illegal; memory → dynamic PE: legal.
        assert!(adg.value_edge_legal(mem, sy));
        assert!(!adg.value_edge_legal(mem, static_pe));
        assert!(adg.value_edge_legal(mem, dyn_pe));
        // sync → static PE: legal (that is its purpose).
        assert!(adg.value_edge_legal(sy, static_pe));
        // dynamic PE → static PE: illegal without a sync element.
        assert!(!adg.value_edge_legal(dyn_pe, static_pe));
        // static PE → dynamic PE: legal (dynamic inputs tolerate anything).
        assert!(adg.value_edge_legal(static_pe, dyn_pe));
    }

    #[test]
    fn undirected_distances_cover_graph() {
        let (adg, ctrl, ..) = small();
        let dist = adg.undirected_distances(ctrl);
        assert_eq!(dist[ctrl.index()], Some(0));
        assert!(dist.iter().all(Option::is_some));
    }

    #[test]
    fn ports_are_positions_in_adjacency() {
        let (adg, _, mem, sy, _) = small();
        let e = adg
            .edges()
            .find(|e| e.src == mem && e.dst == sy)
            .unwrap()
            .id();
        assert_eq!(adg.input_port_of(e), Some(0));
        assert_eq!(adg.output_port_of(e), Some(0));
    }

    #[test]
    fn display_mentions_counts() {
        let (adg, ..) = small();
        let s = adg.to_string();
        assert!(s.contains("4 nodes"));
        assert!(s.contains("3 edges"));
    }
}
