//! Modular spatial-architecture component specifications (§III-A).

use serde::{Deserialize, Serialize};

use crate::{BitWidth, OpSet};

/// Execution-timing model of a PE or switch (§III-A "Dynamic vs Static
/// Scheduling").
///
/// Statically-scheduled elements have the order of all operations and data
/// arrivals determined by the compiler; dynamically-scheduled elements
/// choose operations based on data arrival, paying extra power/area for
/// operand-readiness checks and network flow control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheduling {
    /// Compiler-determined timing; cheapest hardware.
    Static,
    /// Dataflow firing on operand arrival; supports control-dependent
    /// behaviour such as stream-join.
    Dynamic,
}

impl Scheduling {
    /// Whether this is [`Scheduling::Dynamic`].
    #[must_use]
    pub fn is_dynamic(self) -> bool {
        matches!(self, Scheduling::Dynamic)
    }
}

/// Instruction-residency model of a PE or switch (§III-A "Dedicated vs
/// Shared").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sharing {
    /// Exactly one instruction or routing decision; full throughput.
    Dedicated,
    /// Temporally multiplexes up to `max_instructions` static instructions;
    /// more concurrency at area/power and initiation-interval cost.
    Shared {
        /// Capacity of the instruction buffer (must be ≥ 2 to be meaningful).
        max_instructions: u8,
    },
}

impl Sharing {
    /// Number of instruction slots this element provides.
    #[must_use]
    pub fn instruction_slots(self) -> u32 {
        match self {
            Sharing::Dedicated => 1,
            Sharing::Shared { max_instructions } => u32::from(max_instructions),
        }
    }

    /// Whether this is a shared (temporal) element.
    #[must_use]
    pub(crate) fn is_shared(self) -> bool {
        matches!(self, Sharing::Shared { .. })
    }
}

/// A processing element.
///
/// # Example
///
/// ```
/// use dsagen_adg::{PeSpec, Scheduling, Sharing, OpSet, BitWidth};
///
/// let pe = PeSpec::new(Scheduling::Dynamic, Sharing::Dedicated, OpSet::integer_alu())
///     .with_stream_join(true)
///     .with_bitwidth(BitWidth::B64);
/// assert!(pe.stream_join);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeSpec {
    /// Static or dynamic instruction scheduling.
    pub scheduling: Scheduling,
    /// Dedicated or shared (temporal) instruction residency.
    pub sharing: Sharing,
    /// Opcodes the PE's functional units must support.
    pub ops: OpSet,
    /// Datapath width.
    pub bitwidth: BitWidth,
    /// Whether FUs may be decomposed into power-of-two narrower lanes.
    pub decomposable: bool,
    /// Stream-join control: conditionally reuse inputs or abstain from
    /// computation (§III-A; requires dynamic scheduling).
    pub stream_join: bool,
    /// Depth of the per-operand input buffers (dynamic PEs only).
    pub input_buffer_depth: u8,
}

impl PeSpec {
    /// Creates a PE spec with default 64-bit width, no decomposability, no
    /// stream-join, and 4-deep input buffers.
    #[must_use]
    pub fn new(scheduling: Scheduling, sharing: Sharing, ops: OpSet) -> Self {
        PeSpec {
            scheduling,
            sharing,
            ops,
            bitwidth: BitWidth::B64,
            decomposable: false,
            stream_join: false,
            input_buffer_depth: 4,
        }
    }

    /// Sets the datapath width.
    #[must_use]
    pub fn with_bitwidth(mut self, bitwidth: BitWidth) -> Self {
        self.bitwidth = bitwidth;
        self
    }

    /// Sets FU decomposability.
    #[must_use]
    pub fn with_decomposable(mut self, decomposable: bool) -> Self {
        self.decomposable = decomposable;
        self
    }

    /// Sets stream-join support (only meaningful with dynamic scheduling).
    #[must_use]
    pub fn with_stream_join(mut self, stream_join: bool) -> Self {
        self.stream_join = stream_join;
        self
    }

    /// Whether this PE can host control-dependent data reuse, i.e. the
    /// stream-join transformation of §IV-E.
    #[must_use]
    pub fn supports_stream_join(&self) -> bool {
        self.stream_join && self.scheduling.is_dynamic()
    }
}

/// Routing capability of a switch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Routing {
    /// Any input may be routed to any output.
    FullCrossbar,
    /// `matrix[i][o]` says whether input port `i` may drive output port `o`.
    Matrix(Vec<Vec<bool>>),
}

impl Routing {
    /// Whether input port `input` may drive output port `output`.
    ///
    /// Ports beyond the matrix bounds are treated as unconnectable.
    #[must_use]
    pub fn allows(&self, input: usize, output: usize) -> bool {
        match self {
            Routing::FullCrossbar => true,
            Routing::Matrix(m) => m
                .get(input)
                .is_some_and(|row| row.get(output) == Some(&true)),
        }
    }
}

/// A network switch (§III-A "Switches").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SwitchSpec {
    /// Timing model of the routing decisions.
    pub scheduling: Scheduling,
    /// Dedicated routing or temporally-shared routing slots.
    pub sharing: Sharing,
    /// Datapath width.
    pub bitwidth: BitWidth,
    /// Finest granularity the switch can route independently, when
    /// decomposable (§III-A: "route power-of-two finer-grain datatypes
    /// independently"). `None` means not decomposable.
    pub decompose_to: Option<BitWidth>,
    /// Whether the output is flopped; un-flopped switches let a compound
    /// routing stage execute in a single cycle, at timing-closure risk.
    /// The DSE fixes this to `true` (§V-D).
    pub flop_output: bool,
    /// Which input→output port pairs are connectable.
    pub routing: Routing,
}

impl SwitchSpec {
    /// Creates a statically-scheduled, dedicated, flopped full-crossbar
    /// switch of the given width.
    #[must_use]
    pub fn new(bitwidth: BitWidth) -> Self {
        SwitchSpec {
            scheduling: Scheduling::Static,
            sharing: Sharing::Dedicated,
            bitwidth,
            decompose_to: None,
            flop_output: true,
            routing: Routing::FullCrossbar,
        }
    }

    /// Sets the timing model.
    #[must_use]
    pub(crate) fn with_scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Makes the switch decomposable down to `width`.
    #[must_use]
    pub fn with_decompose_to(mut self, width: BitWidth) -> Self {
        self.decompose_to = Some(width);
        self
    }

    /// Restricts routing to an explicit connectivity matrix.
    #[must_use]
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Number of independent sub-word lanes the switch can route.
    #[must_use]
    pub fn lanes(&self) -> u16 {
        match self.decompose_to {
            Some(fine) => self.bitwidth.lanes_of(fine).max(1),
            None => 1,
        }
    }
}

/// A delay element: a FIFO used for pipeline balancing (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DelaySpec {
    /// Maximum configurable delay in cycles (FIFO depth).
    pub depth: u8,
    /// Static delay elements offer a fixed compiler-chosen delay; dynamic
    /// ones drain opportunistically.
    pub scheduling: Scheduling,
    /// Datapath width.
    pub bitwidth: BitWidth,
}

impl DelaySpec {
    /// Creates a static delay FIFO of the given depth and 64-bit width.
    #[must_use]
    pub fn new(depth: u8) -> Self {
        DelaySpec {
            depth,
            scheduling: Scheduling::Static,
            bitwidth: BitWidth::B64,
        }
    }
}

/// A synchronization element (vector port, §III-A).
///
/// Sync elements are FIFO buffers coordinated by programmable ready-logic;
/// they fire (read-and-pop) a group of inputs simultaneously so that
/// statically-scheduled consumers can reason about timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SyncSpec {
    /// FIFO depth in entries.
    pub depth: u16,
    /// Width of one entry.
    pub bitwidth: BitWidth,
    /// Number of scalar lanes grouped by the ready logic (vector width).
    pub lanes: u8,
}

impl SyncSpec {
    /// Creates a sync element with the given depth, 64-bit entries, and a
    /// single lane.
    #[must_use]
    pub fn new(depth: u16) -> Self {
        SyncSpec {
            depth,
            bitwidth: BitWidth::B64,
            lanes: 1,
        }
    }

    /// Sets the number of grouped lanes.
    #[must_use]
    pub fn with_lanes(mut self, lanes: u8) -> Self {
        self.lanes = lanes;
        self
    }

    /// Total buffered capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.depth) * u64::from(self.bitwidth.bytes()) * u64::from(self.lanes)
    }
}

/// What backs a memory node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// On-chip scratchpad, explicitly managed.
    Scratchpad,
    /// Interface to the shared cache hierarchy (the paper integrates
    /// accelerators to a 75 GB/s L2, §VII).
    MainMemory,
}

/// Which stream controllers a memory provides (§III-A "Memories").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemControllers {
    /// Linear controller: inductive 2-D affine streams (REVEL-style).
    pub linear: bool,
    /// Indirect controller: `a[b[i]]`-style gather/scatter (SPU-style).
    pub indirect: bool,
    /// Atomic read-modify-write compute units embedded in each bank
    /// (`a[b[i]] += v`).
    pub atomic_update: bool,
    /// Request coalescing for strided access (§III-C potential feature:
    /// "we could implement memory coalescing; irregular access is currently
    /// supported through banking"): merges same-line strided requests.
    pub coalescing: bool,
}

impl MemControllers {
    /// Linear streams only.
    #[must_use]
    pub fn linear_only() -> Self {
        MemControllers {
            linear: true,
            indirect: false,
            atomic_update: false,
            coalescing: false,
        }
    }

    /// Linear + indirect + atomic-update controllers (no coalescing — the
    /// paper's full-capability point; coalescing is the §III-C extension).
    #[must_use]
    pub fn full() -> Self {
        MemControllers {
            linear: true,
            indirect: true,
            atomic_update: true,
            coalescing: false,
        }
    }
}

/// A decoupled memory (§III-A "Memories").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemSpec {
    /// Scratchpad or main-memory interface.
    pub kind: MemKind,
    /// Capacity in bytes (scratchpads) or effectively unbounded for main
    /// memory (still recorded for the model).
    pub capacity_bytes: u64,
    /// Bytes deliverable per cycle (line width).
    pub width_bytes: u32,
    /// Number of concurrent streams the memory arbitrates.
    pub num_streams: u8,
    /// Number of banks (1 = unbanked; banking supplies irregular-access
    /// bandwidth in lieu of coalescing, §III-C).
    pub banks: u8,
    /// Available stream controllers.
    pub controllers: MemControllers,
}

impl MemSpec {
    /// An unbanked scratchpad with linear streams. Stream-dataflow
    /// scratchpads arbitrate many concurrent streams (one per active
    /// vector port).
    #[must_use]
    pub fn scratchpad(capacity_bytes: u64, width_bytes: u32) -> Self {
        MemSpec {
            kind: MemKind::Scratchpad,
            capacity_bytes,
            width_bytes,
            num_streams: 16,
            banks: 1,
            controllers: MemControllers::linear_only(),
        }
    }

    /// A main-memory (L2) interface with the paper's 75 GB/s ≈ 64 B/cycle
    /// envelope at 1 GHz (§VII rounds to a cache-line width; we use 64 B).
    #[must_use]
    pub fn main_memory() -> Self {
        MemSpec {
            kind: MemKind::MainMemory,
            capacity_bytes: u64::MAX,
            width_bytes: 64,
            num_streams: 8,
            banks: 1,
            controllers: MemControllers::linear_only(),
        }
    }

    /// Sets the bank count.
    #[must_use]
    pub fn with_banks(mut self, banks: u8) -> Self {
        self.banks = banks;
        self
    }

    /// Sets the available controllers.
    #[must_use]
    pub fn with_controllers(mut self, controllers: MemControllers) -> Self {
        self.controllers = controllers;
        self
    }
}

/// What implements the control function (§III-C "Alternate Control Cores":
/// "for designs that do not require programmability, we could replace the
/// control core with much simpler FSMs or even a simple fixed stream RAM").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CtrlKind {
    /// A programmable core with a stream-dataflow ISA; can execute scalar
    /// fallback code (§IV-C).
    ProgrammableCore,
    /// A fixed-function command sequencer: far cheaper, but kernels whose
    /// compiled version needs scalar fallback work cannot run.
    Fsm,
}

/// The control core (§III-A "Control"): distributes stream-dataflow
/// commands to every other component and synchronizes program phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CtrlSpec {
    /// Programmable core or fixed-function sequencer.
    pub kind: CtrlKind,
    /// Cycles to issue one stream command to a component.
    pub command_issue_cycles: u32,
    /// Cycles to execute one scalar fallback instruction on the core (used
    /// when a modular transformation is unavailable and the compiler falls
    /// back to scalar code, §IV-C). Irrelevant for [`CtrlKind::Fsm`].
    pub scalar_op_cycles: u32,
}

impl CtrlSpec {
    /// A programmable control core with single-cycle command issue and
    /// scalar ops.
    #[must_use]
    pub fn new() -> Self {
        CtrlSpec {
            kind: CtrlKind::ProgrammableCore,
            command_issue_cycles: 1,
            scalar_op_cycles: 1,
        }
    }

    /// A fixed-function FSM sequencer (§III-C potential feature).
    #[must_use]
    pub fn fsm() -> Self {
        CtrlSpec {
            kind: CtrlKind::Fsm,
            command_issue_cycles: 1,
            scalar_op_cycles: 1,
        }
    }

    /// Whether this control implementation can run scalar fallback code.
    #[must_use]
    pub fn is_programmable(&self) -> bool {
        self.kind == CtrlKind::ProgrammableCore
    }
}

impl Default for CtrlSpec {
    fn default() -> Self {
        CtrlSpec::new()
    }
}

/// The kind and parameters of one ADG node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum NodeKind {
    /// Processing element.
    Pe(PeSpec),
    /// Network switch.
    Switch(SwitchSpec),
    /// Delay FIFO.
    Delay(DelaySpec),
    /// Synchronization element (vector port).
    Sync(SyncSpec),
    /// Decoupled memory.
    Memory(MemSpec),
    /// Control core.
    Control(CtrlSpec),
}

impl NodeKind {
    /// Short kind name for display and DOT export.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            NodeKind::Pe(_) => "pe",
            NodeKind::Switch(_) => "switch",
            NodeKind::Delay(_) => "delay",
            NodeKind::Sync(_) => "sync",
            NodeKind::Memory(_) => "mem",
            NodeKind::Control(_) => "ctrl",
        }
    }

    /// Datapath width of the node, if it has one.
    #[must_use]
    pub(crate) fn bitwidth(&self) -> Option<BitWidth> {
        match self {
            NodeKind::Pe(pe) => Some(pe.bitwidth),
            NodeKind::Switch(sw) => Some(sw.bitwidth),
            NodeKind::Delay(d) => Some(d.bitwidth),
            NodeKind::Sync(sy) => Some(sy.bitwidth),
            NodeKind::Memory(_) | NodeKind::Control(_) => None,
        }
    }

    /// The timing model of the node's *outputs*: does data leave at
    /// compiler-known times (static) or data-dependent times (dynamic)?
    ///
    /// Memories and the control core are inherently dynamic; sync elements
    /// convert dynamic arrivals into static departures; delay elements keep
    /// their configured model.
    #[must_use]
    pub(crate) fn output_timing(&self) -> Scheduling {
        match self {
            NodeKind::Pe(pe) => pe.scheduling,
            NodeKind::Switch(sw) => sw.scheduling,
            NodeKind::Delay(d) => d.scheduling,
            NodeKind::Sync(_) => Scheduling::Static,
            NodeKind::Memory(_) | NodeKind::Control(_) => Scheduling::Dynamic,
        }
    }

    /// The timing model the node *tolerates on its inputs*. Sync elements
    /// and dynamic elements absorb dynamically-timed data; static elements
    /// require statically-timed arrivals.
    #[must_use]
    pub(crate) fn input_tolerance(&self) -> Scheduling {
        match self {
            NodeKind::Sync(_) | NodeKind::Memory(_) | NodeKind::Control(_) => Scheduling::Dynamic,
            NodeKind::Pe(pe) => pe.scheduling,
            NodeKind::Switch(sw) => sw.scheduling,
            NodeKind::Delay(d) => d.scheduling,
        }
    }

    /// Whether the node accepts a configuration bitstream (§VI). Everything
    /// except the control core is configured over the network.
    #[must_use]
    pub fn is_configurable(&self) -> bool {
        !matches!(self, NodeKind::Control(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_slot_counts() {
        assert_eq!(Sharing::Dedicated.instruction_slots(), 1);
        assert_eq!(
            Sharing::Shared {
                max_instructions: 8
            }
            .instruction_slots(),
            8
        );
    }

    #[test]
    fn stream_join_requires_dynamic() {
        let static_pe = PeSpec::new(Scheduling::Static, Sharing::Dedicated, OpSet::integer_alu())
            .with_stream_join(true);
        assert!(!static_pe.supports_stream_join());
        let dyn_pe = PeSpec::new(
            Scheduling::Dynamic,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        )
        .with_stream_join(true);
        assert!(dyn_pe.supports_stream_join());
    }

    #[test]
    fn routing_matrix_bounds() {
        let r = Routing::Matrix(vec![vec![true, false], vec![false, true]]);
        assert!(r.allows(0, 0));
        assert!(!r.allows(0, 1));
        assert!(!r.allows(5, 0));
        assert!(Routing::FullCrossbar.allows(17, 99));
    }

    #[test]
    fn switch_lane_count() {
        let sw = SwitchSpec::new(BitWidth::B64).with_decompose_to(BitWidth::B8);
        assert_eq!(sw.lanes(), 8);
        assert_eq!(SwitchSpec::new(BitWidth::B64).lanes(), 1);
    }

    #[test]
    fn sync_capacity() {
        let sy = SyncSpec::new(16).with_lanes(4);
        assert_eq!(sy.capacity_bytes(), 16 * 8 * 4);
    }

    #[test]
    fn timing_models() {
        let mem = NodeKind::Memory(MemSpec::main_memory());
        assert_eq!(mem.output_timing(), Scheduling::Dynamic);
        assert_eq!(mem.input_tolerance(), Scheduling::Dynamic);
        let sync = NodeKind::Sync(SyncSpec::new(8));
        assert_eq!(sync.output_timing(), Scheduling::Static);
        assert_eq!(sync.input_tolerance(), Scheduling::Dynamic);
    }

    #[test]
    fn control_is_not_configurable() {
        assert!(!NodeKind::Control(CtrlSpec::new()).is_configurable());
        assert!(NodeKind::Sync(SyncSpec::new(2)).is_configurable());
    }
}
