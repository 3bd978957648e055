//! Hardware feature summary used to gate modular compiler transformations.

use serde::{Deserialize, Serialize};

use crate::{Adg, NodeKind, OpSet, Scheduling};

/// A summary of which ISA-level features an ADG offers.
///
/// The modular compiler (§IV-C) "first inspects if the underlying hardware
/// has the corresponding feature" before applying a hardware-dependent
/// transformation; this type is that inspection's result. The DSE also uses
/// it to prune kernel versions that can never map.
///
/// # Example
///
/// ```
/// use dsagen_adg::presets;
///
/// let spu = presets::spu();
/// let f = spu.features();
/// assert!(f.stream_join_pes > 0);
/// assert!(f.indirect_memory);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeatureSet {
    /// Count of statically-scheduled dedicated PEs.
    pub dedicated_static_pes: u32,
    /// Count of statically-scheduled shared (temporal) PEs.
    pub shared_static_pes: u32,
    /// Count of dynamically-scheduled dedicated PEs.
    pub dedicated_dynamic_pes: u32,
    /// Count of dynamically-scheduled shared PEs.
    pub shared_dynamic_pes: u32,
    /// Count of PEs supporting stream-join control.
    pub stream_join_pes: u32,
    /// Whether any memory has an indirect stream controller.
    pub indirect_memory: bool,
    /// Whether any memory supports in-bank atomic update.
    pub atomic_update: bool,
    /// Whether any memory is banked (banks > 1).
    pub banked_memory: bool,
    /// Whether any memory coalesces strided requests (§III-C extension).
    pub coalescing_memory: bool,
    /// Whether the control core is programmable (can run scalar fallback
    /// code); false for the FSM sequencer of §III-C.
    pub programmable_control: bool,
    /// Total instruction slots across all PEs (dedicated PEs contribute 1).
    pub total_instruction_slots: u32,
    /// Union of all PE opcode sets.
    pub op_union: OpSet,
    /// Total sync-element input lanes on the memory→fabric side (bounds the
    /// usable vectorization width).
    pub total_input_lanes: u32,
    /// Total sync-element capacity in bytes (bounds the repetitive-update
    /// buffering optimization, §IV-D).
    pub sync_capacity_bytes: u64,
    /// Widest vector port (sync-element lane count); bounds how many
    /// stencil/filter taps the compiler can group onto one port.
    pub max_port_lanes: u16,
    /// Whether any PE or switch is decomposable to sub-word lanes.
    pub decomposable: bool,
}

impl FeatureSet {
    /// Whether any PE is dynamically scheduled.
    #[must_use]
    pub fn has_dynamic_pes(&self) -> bool {
        self.dedicated_dynamic_pes + self.shared_dynamic_pes > 0
    }

    /// Whether any PE is shared (temporal).
    #[must_use]
    pub fn has_shared_pes(&self) -> bool {
        self.shared_static_pes + self.shared_dynamic_pes > 0
    }

    /// Total number of PEs.
    #[must_use]
    pub fn total_pes(&self) -> u32 {
        self.dedicated_static_pes
            + self.shared_static_pes
            + self.dedicated_dynamic_pes
            + self.shared_dynamic_pes
    }
}

impl Adg {
    /// Summarizes this graph's ISA-level features.
    #[must_use]
    pub fn features(&self) -> FeatureSet {
        let mut f = FeatureSet::default();
        for node in self.nodes() {
            match &node.kind {
                NodeKind::Pe(pe) => {
                    match (pe.scheduling, pe.sharing.is_shared()) {
                        (Scheduling::Static, false) => f.dedicated_static_pes += 1,
                        (Scheduling::Static, true) => f.shared_static_pes += 1,
                        (Scheduling::Dynamic, false) => f.dedicated_dynamic_pes += 1,
                        (Scheduling::Dynamic, true) => f.shared_dynamic_pes += 1,
                    }
                    if pe.supports_stream_join() {
                        f.stream_join_pes += 1;
                    }
                    f.total_instruction_slots += pe.sharing.instruction_slots();
                    f.op_union = f.op_union.union(pe.ops);
                    f.decomposable |= pe.decomposable;
                }
                NodeKind::Switch(sw) => {
                    f.decomposable |= sw.decompose_to.is_some();
                }
                NodeKind::Sync(sy) => {
                    f.sync_capacity_bytes += sy.capacity_bytes();
                    f.max_port_lanes = f.max_port_lanes.max(u16::from(sy.lanes));
                    // Only count sync elements that are fed by a memory as
                    // input ports.
                    let fed_by_mem = self
                        .in_edges(node.id())
                        .any(|e| matches!(self.kind(e.src), Ok(NodeKind::Memory(_))));
                    if fed_by_mem {
                        f.total_input_lanes += u32::from(sy.lanes);
                    }
                }
                NodeKind::Memory(m) => {
                    f.indirect_memory |= m.controllers.indirect;
                    f.atomic_update |= m.controllers.atomic_update;
                    f.banked_memory |= m.banks > 1;
                    f.coalescing_memory |= m.controllers.coalescing;
                }
                NodeKind::Control(ctrl) => {
                    f.programmable_control |= ctrl.is_programmable();
                }
                NodeKind::Delay(_) => {}
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        Adg, CtrlSpec, MemControllers, MemSpec, OpSet, PeSpec, Scheduling, Sharing, SyncSpec,
    };

    #[test]
    fn feature_counts_reflect_graph() {
        let mut adg = Adg::new("f");
        adg.add_control(CtrlSpec::new());
        let mem = adg.add_memory(
            MemSpec::scratchpad(16 << 10, 64)
                .with_banks(8)
                .with_controllers(MemControllers::full()),
        );
        let sy = adg.add_sync(SyncSpec::new(8).with_lanes(4));
        adg.add_link(mem, sy).unwrap();
        adg.add_pe(PeSpec::new(
            Scheduling::Static,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        adg.add_pe(
            PeSpec::new(
                Scheduling::Dynamic,
                Sharing::Shared {
                    max_instructions: 8,
                },
                OpSet::floating_point(),
            )
            .with_stream_join(true),
        );

        let f = adg.features();
        assert_eq!(f.dedicated_static_pes, 1);
        assert_eq!(f.shared_dynamic_pes, 1);
        assert_eq!(f.stream_join_pes, 1);
        assert_eq!(f.total_pes(), 2);
        assert_eq!(f.total_instruction_slots, 9);
        assert!(f.indirect_memory);
        assert!(f.atomic_update);
        assert!(f.banked_memory);
        assert_eq!(f.total_input_lanes, 4);
        assert!(f.op_union.is_superset(OpSet::floating_point()));
        assert!(f.has_dynamic_pes());
        assert!(f.has_shared_pes());
    }

    #[test]
    fn empty_graph_has_default_features() {
        let adg = Adg::new("empty");
        assert_eq!(adg.features(), super::FeatureSet::default());
    }

    #[test]
    fn sync_not_fed_by_memory_is_not_an_input_port() {
        let mut adg = Adg::new("f");
        adg.add_sync(SyncSpec::new(8).with_lanes(4));
        assert_eq!(adg.features().total_input_lanes, 0);
        assert_eq!(adg.features().sync_capacity_bytes, 8 * 8 * 4);
    }
}
