//! Random ADG mutations for design-space exploration (§V step 2a:
//! "create a modified ADG where a random number of components are added or
//! removed (with random connectivity), without exceeding the power and
//! area budget").
//!
//! Per §V-D, the main-memory interface and the control core are fixed;
//! the scratchpad's parameters (but not its existence) are explored.

use dsagen_adg::{
    Adg, BitWidth, MemKind, NodeId, NodeKind, OpSet, Opcode, Scheduling, Sharing, SwitchSpec,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The kinds of mutation the explorer draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Add a PE wired to nearby switches.
    AddPe,
    /// Remove a random PE.
    RemovePe,
    /// Add a switch wired into the network.
    AddSwitch,
    /// Remove a random switch.
    RemoveSwitch,
    /// Add a random link between network elements.
    AddLink,
    /// Remove a random link.
    RemoveLink,
    /// Flip a PE between static and dynamic scheduling.
    TogglePeScheduling,
    /// Flip a PE between dedicated and shared.
    TogglePeSharing,
    /// Add or remove a functional-unit family on a PE.
    MutatePeOps,
    /// Resize a sync element's depth or lanes.
    ResizeSync,
    /// Double or halve the scratchpad's banks, or toggle its indirect /
    /// atomic controllers.
    MutateScratchpad,
    /// Shrink a PE's opcode set to what the given used-ops table needs
    /// ("remove redundant features", §VIII-B).
    TrimPeOps,
    /// Toggle the scratchpad's strided-request coalescing (§III-C
    /// potential feature, implemented as an extension).
    ToggleCoalescing,
    /// Swap the control implementation between a programmable core and an
    /// FSM sequencer (§III-C "Alternate Control Cores" extension). Kernels
    /// needing scalar fallback code keep the design honest: their versions
    /// become unsatisfiable under an FSM, so the explorer only accepts the
    /// swap when every kernel still maps.
    SwapControlKind,
}

impl Mutation {
    /// All mutation kinds.
    pub const ALL: [Mutation; 14] = [
        Mutation::AddPe,
        Mutation::RemovePe,
        Mutation::AddSwitch,
        Mutation::RemoveSwitch,
        Mutation::AddLink,
        Mutation::RemoveLink,
        Mutation::TogglePeScheduling,
        Mutation::TogglePeSharing,
        Mutation::MutatePeOps,
        Mutation::ResizeSync,
        Mutation::MutateScratchpad,
        Mutation::TrimPeOps,
        Mutation::ToggleCoalescing,
        Mutation::SwapControlKind,
    ];
}

/// Applies one random mutation to `adg`. Returns a description of what
/// changed, or `None` if the drawn mutation was inapplicable (caller may
/// redraw). The mutated graph is only returned when it still validates.
pub fn mutate(adg: &mut Adg, rng: &mut StdRng, used_ops: &OpSet) -> Option<Mutation> {
    // `ALL` is a non-empty const; fall back to the first entry rather than
    // panicking if `choose` ever declines (e.g. a stub RNG).
    let kind = Mutation::ALL
        .choose(rng)
        .copied()
        .unwrap_or(Mutation::ALL[0]);
    let backup = adg.clone();
    let applied = apply(adg, rng, kind, used_ops);
    if applied && adg.validate().is_ok() {
        Some(kind)
    } else {
        *adg = backup;
        None
    }
}

fn random_pe(adg: &Adg, rng: &mut StdRng) -> Option<NodeId> {
    let pes: Vec<NodeId> = adg.pes().collect();
    pes.choose(rng).copied()
}

fn random_switch(adg: &Adg, rng: &mut StdRng) -> Option<NodeId> {
    let sws: Vec<NodeId> = adg.switches().collect();
    sws.choose(rng).copied()
}

fn apply(adg: &mut Adg, rng: &mut StdRng, kind: Mutation, used_ops: &OpSet) -> bool {
    match kind {
        Mutation::AddPe => {
            let Some(template) = random_pe(adg, rng) else {
                return false;
            };
            let spec = match adg.kind(template) {
                Ok(NodeKind::Pe(pe)) => pe.clone(),
                _ => return false,
            };
            let pe = adg.add_pe(spec);
            // Random connectivity to 2–3 switches.
            for _ in 0..rng.gen_range(2..=3usize) {
                let Some(sw) = random_switch(adg, rng) else {
                    return false;
                };
                let _ = adg.add_link(sw, pe);
            }
            if let Some(sw) = random_switch(adg, rng) {
                let _ = adg.add_link(pe, sw);
            }
            true
        }
        Mutation::RemovePe => {
            if adg.pes().count() <= 2 {
                return false;
            }
            let Some(pe) = random_pe(adg, rng) else {
                return false;
            };
            adg.remove_node(pe).is_ok()
        }
        Mutation::AddSwitch => {
            let Some(neigh) = random_switch(adg, rng) else {
                return false;
            };
            let spec = match adg.kind(neigh) {
                Ok(NodeKind::Switch(sw)) => sw.clone(),
                _ => SwitchSpec::new(BitWidth::B64),
            };
            let sw = adg.add_switch(spec);
            let _ = adg.add_link(neigh, sw);
            let _ = adg.add_link(sw, neigh);
            for _ in 0..rng.gen_range(1..=2usize) {
                if let Some(other) = random_switch(adg, rng) {
                    if other != sw {
                        let _ = adg.add_link(sw, other);
                        let _ = adg.add_link(other, sw);
                    }
                }
            }
            true
        }
        Mutation::RemoveSwitch => {
            if adg.switches().count() <= 2 {
                return false;
            }
            let Some(sw) = random_switch(adg, rng) else {
                return false;
            };
            adg.remove_node(sw).is_ok()
        }
        Mutation::AddLink => {
            let candidates: Vec<NodeId> = adg
                .nodes()
                .filter(|n| {
                    matches!(
                        n.kind,
                        NodeKind::Switch(_) | NodeKind::Pe(_) | NodeKind::Sync(_)
                    )
                })
                .map(|n| n.id())
                .collect();
            if candidates.len() < 2 {
                return false;
            }
            let (Some(&a), Some(&b)) = (candidates.choose(rng), candidates.choose(rng)) else {
                return false;
            };
            if a == b {
                return false;
            }
            adg.add_link(a, b).is_ok()
        }
        Mutation::RemoveLink => {
            let edges: Vec<_> = adg.edges().map(|e| e.id()).collect();
            let Some(e) = edges.choose(rng) else {
                return false;
            };
            adg.remove_edge(*e).is_ok()
        }
        Mutation::TogglePeScheduling => {
            let Some(id) = random_pe(adg, rng) else {
                return false;
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Pe(pe) = &mut node.kind {
                pe.scheduling = match pe.scheduling {
                    Scheduling::Static => Scheduling::Dynamic,
                    Scheduling::Dynamic => {
                        pe.stream_join = false; // static PEs cannot join
                        Scheduling::Static
                    }
                };
                if pe.scheduling.is_dynamic() {
                    pe.stream_join = true;
                }
                true
            } else {
                false
            }
        }
        Mutation::TogglePeSharing => {
            let Some(id) = random_pe(adg, rng) else {
                return false;
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Pe(pe) = &mut node.kind {
                pe.sharing = match pe.sharing {
                    Sharing::Dedicated => Sharing::Shared {
                        max_instructions: 8,
                    },
                    Sharing::Shared { .. } => Sharing::Dedicated,
                };
                true
            } else {
                false
            }
        }
        Mutation::MutatePeOps => {
            let Some(id) = random_pe(adg, rng) else {
                return false;
            };
            let family = match rng.gen_range(0..3) {
                0 => OpSet::integer_alu(),
                1 => OpSet::integer_mul(),
                _ => OpSet::floating_point(),
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Pe(pe) = &mut node.kind {
                if pe.ops.is_superset(family) && pe.ops.len() > family.len() {
                    // Remove the family.
                    let mut next = OpSet::new();
                    for op in pe.ops.iter() {
                        if !family.contains(op) {
                            next.insert(op);
                        }
                    }
                    pe.ops = next;
                } else {
                    pe.ops = pe.ops.union(family);
                }
                !pe.ops.is_empty()
            } else {
                false
            }
        }
        Mutation::ResizeSync => {
            let syncs: Vec<NodeId> = adg.syncs().collect();
            let Some(id) = syncs.choose(rng).copied() else {
                return false;
            };
            let grow = rng.gen_bool(0.5);
            let dim = rng.gen_bool(0.5);
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Sync(sy) = &mut node.kind {
                if dim {
                    sy.depth = if grow {
                        (sy.depth * 2).min(256)
                    } else {
                        (sy.depth / 2).max(2)
                    };
                } else {
                    sy.lanes = if grow {
                        (sy.lanes * 2).min(16)
                    } else {
                        (sy.lanes / 2).max(1)
                    };
                }
                true
            } else {
                false
            }
        }
        Mutation::MutateScratchpad => {
            let spads: Vec<NodeId> = adg
                .memories()
                .filter(|m| {
                    matches!(adg.kind(*m), Ok(NodeKind::Memory(spec)) if spec.kind == MemKind::Scratchpad)
                })
                .collect();
            let Some(id) = spads.choose(rng).copied() else {
                return false;
            };
            let choice = rng.gen_range(0..4);
            let grow = rng.gen_bool(0.5);
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Memory(m) = &mut node.kind {
                match choice {
                    0 => {
                        m.banks = if grow {
                            (m.banks.saturating_mul(2)).min(32)
                        } else {
                            (m.banks / 2).max(1)
                        };
                    }
                    1 => {
                        m.controllers.indirect = !m.controllers.indirect;
                        if !m.controllers.indirect {
                            m.controllers.atomic_update = false;
                        }
                    }
                    2 => {
                        m.controllers.atomic_update =
                            m.controllers.indirect && !m.controllers.atomic_update;
                    }
                    _ => {
                        m.width_bytes = if grow {
                            (m.width_bytes * 2).min(128)
                        } else {
                            (m.width_bytes / 2).max(8)
                        };
                    }
                }
                m.controllers.linear = true;
                true
            } else {
                false
            }
        }
        Mutation::ToggleCoalescing => {
            let spads: Vec<NodeId> = adg
                .memories()
                .filter(|m| {
                    matches!(adg.kind(*m), Ok(NodeKind::Memory(spec)) if spec.kind == MemKind::Scratchpad)
                })
                .collect();
            let Some(id) = spads.choose(rng).copied() else {
                return false;
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Memory(m) = &mut node.kind {
                m.controllers.coalescing = !m.controllers.coalescing;
                true
            } else {
                false
            }
        }
        Mutation::SwapControlKind => {
            let Some(id) = adg.control() else {
                return false;
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Control(ctrl) = &mut node.kind {
                ctrl.kind = match ctrl.kind {
                    dsagen_adg::CtrlKind::ProgrammableCore => dsagen_adg::CtrlKind::Fsm,
                    dsagen_adg::CtrlKind::Fsm => dsagen_adg::CtrlKind::ProgrammableCore,
                };
                true
            } else {
                false
            }
        }
        Mutation::TrimPeOps => {
            let Some(id) = random_pe(adg, rng) else {
                return false;
            };
            let Some(node) = adg.node_mut(id) else {
                return false;
            };
            if let NodeKind::Pe(pe) = &mut node.kind {
                let trimmed = pe.ops.intersection(*used_ops);
                if trimmed == pe.ops || trimmed.is_empty() {
                    // Nothing to trim (or would brick the PE): keep a
                    // minimal copy-capable ALU.
                    let mut minimal = OpSet::new();
                    minimal.insert(Opcode::Copy);
                    minimal.insert(Opcode::Add);
                    if pe.ops == minimal {
                        return false;
                    }
                    pe.ops = if trimmed.is_empty() { minimal } else { trimmed };
                } else {
                    pe.ops = trimmed;
                }
                true
            } else {
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn mutations_keep_graph_valid() {
        let mut adg = presets::dse_initial();
        let mut rng = StdRng::seed_from_u64(42);
        let used = OpSet::integer_alu().union(OpSet::integer_mul());
        let mut applied = 0;
        for _ in 0..300 {
            if mutate(&mut adg, &mut rng, &used).is_some() {
                applied += 1;
                adg.validate().expect("mutation broke validity");
            }
        }
        assert!(applied > 100, "only {applied} mutations applied");
    }

    #[test]
    fn mutations_change_something() {
        let mut adg = presets::softbrain();
        let before = adg.clone();
        let mut rng = StdRng::seed_from_u64(7);
        let used = OpSet::integer_alu();
        let mut changed = false;
        for _ in 0..50 {
            if mutate(&mut adg, &mut rng, &used).is_some() && adg != before {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn never_removes_last_pes() {
        let mut adg = presets::cca();
        let mut rng = StdRng::seed_from_u64(3);
        let used = OpSet::integer_alu();
        for _ in 0..500 {
            let _ = mutate(&mut adg, &mut rng, &used);
        }
        assert!(adg.pes().count() >= 2);
        assert!(adg.control().is_some());
    }

    #[test]
    fn control_and_main_memory_are_never_touched() {
        let mut adg = presets::spu();
        let ctrl = adg.control().unwrap();
        let mains: Vec<NodeId> = adg
            .memories()
            .filter(|m| {
                matches!(adg.kind(*m), Ok(NodeKind::Memory(s)) if s.kind == MemKind::MainMemory)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        let used = OpSet::all();
        for _ in 0..300 {
            let _ = mutate(&mut adg, &mut rng, &used);
        }
        assert_eq!(adg.control(), Some(ctrl));
        for m in mains {
            assert!(adg.node(m).is_some());
        }
    }
}
