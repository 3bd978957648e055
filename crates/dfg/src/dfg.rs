//! The compiled dataflow graph: the compute half of a decoupled region.

use std::fmt;
use std::hash::{Hash, Hasher};

use dsagen_adg::{BitWidth, Opcode};
use serde::{Deserialize, Serialize};

/// Identifier of an operation within one [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One node of a compiled dataflow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DfgOp {
    /// A value arriving from input port `port` (an in-stream).
    Input {
        /// Sync-element input port index.
        port: usize,
    },
    /// A compile-time constant.
    Const(i64),
    /// A compute operation mapped onto a PE.
    Compute {
        /// The operation.
        op: Opcode,
        /// Operand values, in operand order.
        ins: Vec<OpId>,
    },
    /// A loop-carried accumulation (`acc = acc ⊕ input`, reset every
    /// `reset_every` firings). Forms a recurrence whose latency the
    /// schedule determines (§V-B).
    Accum {
        /// Combining operation.
        op: Opcode,
        /// Accumulated value.
        input: OpId,
        /// Firings between resets (the reduced loop's trip count).
        reset_every: u64,
    },
    /// A stream-join: compares two sorted key streams and controls operand
    /// consumption — pops the lesser side, computes on matches (§IV-E,
    /// Fig 8c). Only dynamically-scheduled PEs with stream-join support can
    /// host this (§III-A).
    StreamJoin {
        /// Left key.
        left: OpId,
        /// Right key.
        right: OpId,
    },
    /// A value leaving through output port `port` (an out-stream).
    Output {
        /// Sync-element output port index.
        port: usize,
        /// The value sent out.
        input: OpId,
    },
}

impl DfgOp {
    /// Operand ids, in order.
    #[must_use]
    pub fn operands(&self) -> Vec<OpId> {
        match self {
            DfgOp::Input { .. } | DfgOp::Const(_) => Vec::new(),
            DfgOp::Compute { ins, .. } => ins.clone(),
            DfgOp::Accum { input, .. } => vec![*input],
            DfgOp::StreamJoin { left, right } => vec![*left, *right],
            DfgOp::Output { input, .. } => vec![*input],
        }
    }

    /// The opcode a PE must support to host this node, if it needs a PE.
    /// Inputs/outputs map to sync ports, not PEs.
    #[must_use]
    pub fn required_opcode(&self) -> Option<Opcode> {
        match self {
            DfgOp::Compute { op, .. } | DfgOp::Accum { op, .. } => Some(*op),
            // Joins perform a comparison; they additionally need the
            // stream-join capability flag.
            DfgOp::StreamJoin { .. } => Some(Opcode::CmpLt),
            DfgOp::Input { .. } | DfgOp::Const(_) | DfgOp::Output { .. } => None,
        }
    }

    /// Whether this node must be placed on a PE (as opposed to a port).
    #[must_use]
    pub(crate) fn needs_pe(&self) -> bool {
        self.required_opcode().is_some()
    }
}

/// A loop-carried dependence recorded for the performance model: its
/// latency comes from the spatial schedule; its impact is divided by the
/// number of independent chains that can hide it (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recurrence {
    /// The node the dependence cycles through.
    pub through: OpId,
    /// Independent chains available to hide the dependence (e.g. parallel
    /// accumulators after unrolling, or interleaved outer iterations).
    pub independent_chains: f64,
}

/// A compiled dataflow graph.
///
/// Nodes are stored in topological order by construction (operands must
/// exist before their consumers), so iteration in id order is a valid
/// dataflow order.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Dfg {
    ops: Vec<(DfgOp, BitWidth)>,
    recurrences: Vec<Recurrence>,
}

impl Dfg {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Dfg::default()
    }

    /// Appends a node; operands must already exist.
    ///
    /// # Panics
    ///
    /// Panics if an operand id is not yet in the graph (construction is
    /// topological by contract).
    pub(crate) fn push(&mut self, op: DfgOp, width: BitWidth) -> OpId {
        for operand in op.operands() {
            assert!(
                operand.0 < self.ops.len(),
                "operand {operand} not yet defined"
            );
        }
        self.ops.push((op, width));
        OpId(self.ops.len() - 1)
    }

    /// Records a loop-carried recurrence.
    pub(crate) fn add_recurrence(&mut self, rec: Recurrence) {
        self.recurrences.push(rec);
    }

    /// The node for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this graph.
    #[must_use]
    pub fn op(&self, id: OpId) -> &DfgOp {
        &self.ops[id.0].0
    }

    /// The width of a node's result.
    ///
    /// # Panics
    ///
    /// Panics if the id was not minted by this graph.
    #[must_use]
    pub fn width(&self, id: OpId) -> BitWidth {
        self.ops[id.0].1
    }

    /// Iterates over nodes in topological (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, &DfgOp)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, (op, _))| (OpId(i), op))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Recorded recurrences.
    #[must_use]
    pub fn recurrences(&self) -> &[Recurrence] {
        &self.recurrences
    }

    /// Count of nodes that must occupy a PE.
    #[must_use]
    pub(crate) fn pe_op_count(&self) -> usize {
        self.iter().filter(|(_, op)| op.needs_pe()).count()
    }

    /// Count of instructions (PE ops) — the `#Insts` of the performance
    /// model's `IPC = #Insts × ActivityRatio` (§V-B).
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.pe_op_count()
    }

    /// Feeds the graph's full content — every op (with an explicit variant
    /// tag), its width, and every recurrence — into `h` in id order.
    pub(crate) fn hash_content<H: Hasher>(&self, h: &mut H) {
        h.write_usize(self.ops.len());
        for (op, width) in &self.ops {
            op.hash_content(h);
            width.hash(h);
        }
        h.write_usize(self.recurrences.len());
        for rec in &self.recurrences {
            rec.through.hash(h);
            // f64 has no Hash; the bit pattern is the content.
            h.write_u64(rec.independent_chains.to_bits());
        }
    }

    /// A stable 64-bit content hash of the graph.
    ///
    /// Two graphs with the same ops (in the same topological id order),
    /// widths, and recurrences hash equal; any structural difference —
    /// an opcode, an operand id, a port, a constant, a width — changes the
    /// digest. Computed with [`dsagen_adg::StableHasher`], so the value is
    /// identical across runs and platforms and is safe as a memoization
    /// key (the DSE schedule cache keys on `(adg fingerprint, dfg hash)`).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = dsagen_adg::StableHasher::new();
        self.hash_content(&mut h);
        h.finish()
    }
}

impl DfgOp {
    /// Feeds this op's variant tag and fields into `h` — an explicit,
    /// stable encoding (independent of `#[derive(Hash)]` discriminant
    /// details) used by [`Dfg::content_hash`].
    pub(crate) fn hash_content<H: Hasher>(&self, h: &mut H) {
        match self {
            DfgOp::Input { port } => {
                h.write_u8(0);
                h.write_usize(*port);
            }
            DfgOp::Const(v) => {
                h.write_u8(1);
                h.write_i64(*v);
            }
            DfgOp::Compute { op, ins } => {
                h.write_u8(2);
                op.hash(h);
                h.write_usize(ins.len());
                for i in ins {
                    i.hash(h);
                }
            }
            DfgOp::Accum {
                op,
                input,
                reset_every,
            } => {
                h.write_u8(3);
                op.hash(h);
                input.hash(h);
                h.write_u64(*reset_every);
            }
            DfgOp::StreamJoin { left, right } => {
                h.write_u8(4);
                left.hash(h);
                right.hash(h);
            }
            DfgOp::Output { port, input } => {
                h.write_u8(5);
                h.write_usize(*port);
                input.hash(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dfg {
        /// The consumers of each node (adjacency, one entry per use).
        fn consumers(&self) -> Vec<Vec<OpId>> {
            let mut out = vec![Vec::new(); self.ops.len()];
            for (id, op) in self.iter() {
                for operand in op.operands() {
                    out[operand.0].push(id);
                }
            }
            out
        }

        /// Input ports referenced by the graph, ascending.
        fn input_ports(&self) -> Vec<usize> {
            let mut ports: Vec<usize> = self
                .iter()
                .filter_map(|(_, op)| match op {
                    DfgOp::Input { port } => Some(*port),
                    _ => None,
                })
                .collect();
            ports.sort_unstable();
            ports.dedup();
            ports
        }

        /// Output ports referenced by the graph, ascending.
        fn output_ports(&self) -> Vec<usize> {
            let mut ports: Vec<usize> = self
                .iter()
                .filter_map(|(_, op)| match op {
                    DfgOp::Output { port, .. } => Some(*port),
                    _ => None,
                })
                .collect();
            ports.sort_unstable();
            ports.dedup();
            ports
        }

        /// Whether the graph contains a stream-join node.
        pub(crate) fn has_stream_join(&self) -> bool {
            self.iter()
                .any(|(_, op)| matches!(op, DfgOp::StreamJoin { .. }))
        }
    }

    fn mac_graph() -> Dfg {
        let mut g = Dfg::new();
        let a = g.push(DfgOp::Input { port: 0 }, BitWidth::B64);
        let b = g.push(DfgOp::Input { port: 1 }, BitWidth::B64);
        let m = g.push(
            DfgOp::Compute {
                op: Opcode::Mul,
                ins: vec![a, b],
            },
            BitWidth::B64,
        );
        let acc = g.push(
            DfgOp::Accum {
                op: Opcode::Add,
                input: m,
                reset_every: 64,
            },
            BitWidth::B64,
        );
        g.add_recurrence(Recurrence {
            through: acc,
            independent_chains: 1.0,
        });
        g.push(
            DfgOp::Output {
                port: 0,
                input: acc,
            },
            BitWidth::B64,
        );
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = mac_graph();
        assert_eq!(g.len(), 5);
        assert_eq!(g.pe_op_count(), 2);
        assert_eq!(g.inst_count(), 2);
        assert_eq!(g.recurrences().len(), 1);
        assert!(!g.has_stream_join());
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_references_panic() {
        let mut g = Dfg::new();
        g.push(
            DfgOp::Compute {
                op: Opcode::Not,
                ins: vec![OpId(7)],
            },
            BitWidth::B64,
        );
    }

    #[test]
    fn consumers_adjacency() {
        let g = mac_graph();
        let cons = g.consumers();
        assert_eq!(cons[0], vec![OpId(2)]);
        assert_eq!(cons[2], vec![OpId(3)]);
        assert_eq!(cons[3], vec![OpId(4)]);
        assert!(cons[4].is_empty());
    }

    #[test]
    fn port_listing() {
        let g = mac_graph();
        assert_eq!(g.input_ports(), vec![0, 1]);
        assert_eq!(g.output_ports(), vec![0]);
    }

    #[test]
    fn stream_join_detection() {
        let mut g = Dfg::new();
        let a = g.push(DfgOp::Input { port: 0 }, BitWidth::B64);
        let b = g.push(DfgOp::Input { port: 1 }, BitWidth::B64);
        g.push(DfgOp::StreamJoin { left: a, right: b }, BitWidth::B64);
        assert!(g.has_stream_join());
        assert_eq!(g.op(OpId(2)).required_opcode(), Some(Opcode::CmpLt));
    }
}
