//! Power/area modeling (§V-C).
//!
//! The paper builds an analytical regression model from a dataset of
//! synthesized hardware modules (Synopsys DC, UMC 28 nm, 1 GHz) and uses it
//! inside the DSE, validating it against full-fabric synthesis (Fig 15).
//!
//! **Substitution** (see DESIGN.md): without an EDA flow, the "synthesis"
//! ground truth here is a synthetic component-level cost function with
//! realistic 28 nm magnitudes, mild nonlinearities, deterministic
//! pseudo-noise, and a whole-fabric timing-closure overhead. The regression
//! model is fitted to per-component samples of that ground truth — exactly
//! the paper's methodology — so the estimate-vs-synthesis gap (4–7%, from
//! the fabric-level overhead the per-component fit cannot see) is
//! reproduced by the same mechanism the paper reports.

use dsagen_adg::{Adg, NodeId, NodeKind, OpSet, Opcode};
use serde::{Deserialize, Serialize};

/// Number of features in a component's feature vector.
pub(crate) const N_FEATURES: usize = 14;

/// An area/power estimate in physical units.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HwCost {
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

impl HwCost {
    /// Component-wise sum.
    #[must_use]
    pub(crate) fn plus(self, other: HwCost) -> HwCost {
        HwCost {
            area_mm2: self.area_mm2 + other.area_mm2,
            power_mw: self.power_mw + other.power_mw,
        }
    }

    /// Scaled by a factor.
    #[must_use]
    pub(crate) fn scaled(self, k: f64) -> HwCost {
        HwCost {
            area_mm2: self.area_mm2 * k,
            power_mw: self.power_mw * k,
        }
    }
}

/// Feature vector of one hardware component, the regression model's input
/// (the paper samples "number of I/O links, data width, register file size
/// etc.", §V-C).
#[must_use]
pub(crate) fn component_features(adg: &Adg, id: NodeId) -> [f64; N_FEATURES] {
    let mut f = [0.0; N_FEATURES];
    f[0] = 1.0; // intercept
    let Ok(kind) = adg.kind(id) else { return f };
    let in_deg = adg.in_edges(id).count() as f64;
    let out_deg = adg.out_edges(id).count() as f64;
    match kind {
        NodeKind::Pe(pe) => {
            let w = f64::from(pe.bitwidth.bits()) / 64.0;
            let (alu, mul, div, fp) = fu_counts(pe.ops);
            f[1] = 1.0; // is-PE
            f[2] = w;
            f[3] = alu * w;
            f[4] = mul * w;
            f[5] = div * w;
            f[6] = fp * w;
            f[7] = if pe.scheduling.is_dynamic() {
                f64::from(pe.input_buffer_depth) * w
            } else {
                0.0
            };
            f[8] = f64::from(pe.sharing.instruction_slots());
            f[9] = if pe.decomposable { alu + mul } else { 0.0 };
            f[10] = in_deg + out_deg;
        }
        NodeKind::Switch(sw) => {
            let w = f64::from(sw.bitwidth.bits()) / 64.0;
            let lanes = f64::from(sw.lanes());
            f[11] = in_deg * out_deg * w * lanes.sqrt();
            f[10] = in_deg + out_deg;
            f[8] = f64::from(sw.sharing.instruction_slots());
        }
        NodeKind::Delay(d) => {
            f[12] = f64::from(d.depth) * f64::from(d.bitwidth.bytes());
        }
        NodeKind::Sync(sy) => {
            f[12] = sy.capacity_bytes() as f64;
            f[10] = in_deg + out_deg;
        }
        NodeKind::Memory(m) => {
            let kb = if m.kind == dsagen_adg::MemKind::MainMemory {
                0.0 // interface logic only; the L2 itself is not ours
            } else {
                m.capacity_bytes as f64 / 1024.0
            };
            f[13] = kb;
            f[10] = in_deg + out_deg;
            f[8] = f64::from(m.num_streams);
            f[9] = f64::from(m.banks)
                + if m.controllers.indirect { 8.0 } else { 0.0 }
                + if m.controllers.atomic_update {
                    2.0 * f64::from(m.banks)
                } else {
                    0.0
                }
                // Coalescing adds a request merge buffer per stream slot
                // (§III-C extension).
                + if m.controllers.coalescing {
                    4.0 + 0.5 * f64::from(m.num_streams)
                } else {
                    0.0
                };
        }
        NodeKind::Control(_) => {
            f[1] = 0.0;
            // The control core is a fixed block; modeled by the intercept
            // group below via a dedicated flag.
            f[2] = 64.0; // sentinel weight for the core
        }
    }
    f
}

/// Distinct functional-unit groups a PE's opcode set requires. Compound
/// multi-function FUs (§V-C) mean each *family* costs once, not each
/// opcode.
fn fu_counts(ops: OpSet) -> (f64, f64, f64, f64) {
    let alu = if !ops.intersection(OpSet::integer_alu()).is_empty() {
        1.0
    } else {
        0.0
    };
    let has_mul = ops.contains(Opcode::Mul) || ops.contains(Opcode::Mac);
    let has_div = ops.contains(Opcode::Div) || ops.contains(Opcode::Rem);
    let fp = if ops.has_floating_point() { 1.0 } else { 0.0 };
    (
        alu,
        if has_mul { 1.0 } else { 0.0 },
        if has_div { 1.0 } else { 0.0 },
        fp,
    )
}

/// The hidden "synthesis" cost of one component (area mm², power mW):
/// linear structure with realistic 28 nm magnitudes, plus mild
/// nonlinearities and ±3% deterministic noise — the stand-in for a
/// Synopsys DC run on the module.
#[must_use]
pub(crate) fn synthesize_component(adg: &Adg, id: NodeId) -> HwCost {
    let f = component_features(adg, id);
    let Ok(kind) = adg.kind(id) else {
        return HwCost::default();
    };
    if let NodeKind::Control(ctrl) = kind {
        // Fixed blocks: a RISC-V-class programmable core, or the far
        // cheaper FSM sequencer of §III-C.
        return if ctrl.is_programmable() {
            HwCost {
                area_mm2: 0.05,
                power_mw: 40.0,
            }
        } else {
            HwCost {
                area_mm2: 0.006,
                power_mw: 4.0,
            }
        };
    }
    // Secret "true" coefficients (per feature, area mm² / power mW).
    const AREA: [f64; N_FEATURES] = [
        0.0001, 0.0006, 0.0002, 0.0006, 0.0040, 0.0060, 0.0095, 0.0004, 0.00025, 0.0008, 0.00008,
        0.00035, 0.000012, 0.0009,
    ];
    const POWER: [f64; N_FEATURES] = [
        0.05, 0.3, 0.1, 0.25, 1.6, 1.8, 3.5, 0.22, 0.1, 0.3, 0.04, 0.18, 0.004, 0.35,
    ];
    let mut area = 0.0;
    let mut power = 0.0;
    for i in 0..N_FEATURES {
        area += AREA[i] * f[i];
        power += POWER[i] * f[i];
    }
    // Mild nonlinearity: crossbars grow slightly super-linearly.
    area += 0.00002 * f[11] * f[11].sqrt();
    power += 0.01 * f[11] * f[11].sqrt();
    // Deterministic pseudo-noise ±3% keyed on the feature vector.
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for v in f {
        h = h
            .rotate_left(13)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(v.to_bits());
    }
    let noise = 1.0 + 0.03 * (((h >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0);
    HwCost {
        area_mm2: (area * noise).max(0.0),
        power_mw: (power * noise).max(0.0),
    }
}

/// Whole-fabric timing-closure overhead: "extra structures are required to
/// meet timing for the whole fabric" beyond per-component synthesis
/// (§VIII-B Model Validation). This is why the regression estimate lands
/// 4–7% *below* synthesis.
pub(crate) const FABRIC_OVERHEAD: f64 = 0.055;

/// The "synthesis" result for a whole ADG: per-component ground truth plus
/// the fabric-level overhead.
#[must_use]
pub fn synthesize_adg(adg: &Adg) -> HwCost {
    let mut total = HwCost::default();
    for node in adg.nodes() {
        total = total.plus(synthesize_component(adg, node.id()));
    }
    total.scaled(1.0 + FABRIC_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;

    use super::*;

    #[test]
    fn softbrain_magnitudes_are_plausible() {
        let cost = synthesize_adg(&presets::softbrain());
        assert!(
            (0.1..5.0).contains(&cost.area_mm2),
            "area {}",
            cost.area_mm2
        );
        assert!(
            (50.0..1500.0).contains(&cost.power_mw),
            "power {}",
            cost.power_mw
        );
    }

    #[test]
    fn dynamic_fabric_costs_more_than_static() {
        // Same 4×4 geometry: SPU's dynamic PEs + banked indirect scratchpad
        // versus the all-static baseline.
        let static_mesh = synthesize_adg(&presets::baseline_4x4(false, false, false));
        let spu = synthesize_adg(&presets::spu());
        assert!(spu.area_mm2 > static_mesh.area_mm2);
        assert!(spu.power_mw > static_mesh.power_mw);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_adg(&presets::revel());
        let b = synthesize_adg(&presets::revel());
        assert_eq!(a, b);
    }

    #[test]
    fn fewer_components_cost_less() {
        let cca = synthesize_adg(&presets::cca());
        let soft = synthesize_adg(&presets::softbrain());
        assert!(cca.area_mm2 < soft.area_mm2);
    }

    #[test]
    fn control_core_is_fixed_block() {
        let adg = presets::softbrain();
        let ctrl = adg.control().unwrap();
        let c = synthesize_component(&adg, ctrl);
        assert_eq!(c.area_mm2, 0.05);
        assert_eq!(c.power_mw, 40.0);
    }

    #[test]
    fn feature_vector_shapes() {
        let adg = presets::spu();
        for node in adg.nodes() {
            let f = component_features(&adg, node.id());
            assert_eq!(f[0], 1.0);
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }
}
