//! Least-squares fitting of the area/power regression model (§V-C: "a
//! dataset of all hardware modules with a sampling of possible parameters
//! … was synthesized to build the analytical model").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dsagen_adg::{
    Adg, BitWidth, DelaySpec, MemControllers, MemSpec, NodeId, OpSet, PeSpec, Scheduling, Sharing,
    SwitchSpec, SyncSpec,
};

use crate::area::{component_features, synthesize_component, HwCost, N_FEATURES};

/// The fitted regression model: one coefficient vector for area, one for
/// power.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerModel {
    coef_area: [f64; N_FEATURES],
    coef_power: [f64; N_FEATURES],
}

impl AreaPowerModel {
    /// Fits the model on a sampled component dataset (deterministic for a
    /// given seed).
    #[must_use]
    pub fn fit(seed: u64) -> Self {
        let (xs, areas, powers) = sample_dataset(seed);
        AreaPowerModel {
            coef_area: least_squares(&xs, &areas),
            coef_power: least_squares(&xs, &powers),
        }
    }

    /// Estimated cost of one component.
    #[must_use]
    pub(crate) fn estimate_component(&self, adg: &Adg, id: NodeId) -> HwCost {
        if let Ok(dsagen_adg::NodeKind::Control(ctrl)) = adg.kind(id) {
            // Fixed blocks are carried over directly (not regressed).
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
        let f = component_features(adg, id);
        let mut area = 0.0;
        let mut power = 0.0;
        for (i, fi) in f.iter().enumerate() {
            area += self.coef_area[i] * fi;
            power += self.coef_power[i] * fi;
        }
        HwCost {
            area_mm2: area.max(0.0),
            power_mw: power.max(0.0),
        }
    }

    /// Estimated cost of a whole ADG — the quick evaluation the DSE uses in
    /// place of synthesis (§V-C).
    #[must_use]
    pub fn estimate_adg(&self, adg: &Adg) -> HwCost {
        let mut total = HwCost::default();
        for node in adg.nodes() {
            total = total.plus(self.estimate_component(adg, node.id()));
        }
        total
    }

    /// Estimated cost split by component class (`"pe"`, `"switch"`,
    /// `"sync"`, `"delay"`, `"mem"`, `"ctrl"`) — where the area actually
    /// goes, for reports and the design-space tour.
    #[must_use]
    pub fn estimate_breakdown(
        &self,
        adg: &Adg,
    ) -> std::collections::BTreeMap<&'static str, HwCost> {
        let mut out: std::collections::BTreeMap<&'static str, HwCost> =
            std::collections::BTreeMap::new();
        for node in adg.nodes() {
            let cost = self.estimate_component(adg, node.id());
            let slot = out.entry(node.kind.kind_name()).or_default();
            *slot = slot.plus(cost);
        }
        out
    }
}

impl Default for AreaPowerModel {
    fn default() -> Self {
        AreaPowerModel::fit(0xC0_FFEE)
    }
}

/// Builds one-component graphs across the parameter space and records
/// (features, synthesized area, synthesized power).
#[allow(clippy::type_complexity)]
fn sample_dataset(seed: u64) -> (Vec<[f64; N_FEATURES]>, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs = Vec::new();
    let mut areas = Vec::new();
    let mut powers = Vec::new();

    let widths = [BitWidth::B16, BitWidth::B32, BitWidth::B64];
    let op_menus = [
        OpSet::integer_alu(),
        OpSet::integer_alu().union(OpSet::integer_mul()),
        OpSet::integer_alu().union(OpSet::floating_point()),
        OpSet::all(),
    ];

    let mut record = |adg: &Adg, id: NodeId| {
        let c = synthesize_component(adg, id);
        xs.push(component_features(adg, id));
        areas.push(c.area_mm2);
        powers.push(c.power_mw);
    };

    // PEs across scheduling × sharing × ops × width × fan.
    for &w in &widths {
        for ops in op_menus {
            for scheduling in [Scheduling::Static, Scheduling::Dynamic] {
                for slots in [1u8, 4, 8, 16] {
                    let sharing = if slots == 1 {
                        Sharing::Dedicated
                    } else {
                        Sharing::Shared {
                            max_instructions: slots,
                        }
                    };
                    let mut adg = Adg::new("sample");
                    let spec = PeSpec::new(scheduling, sharing, ops)
                        .with_bitwidth(w)
                        .with_decomposable(rng.gen_bool(0.5));
                    let pe = adg.add_pe(spec);
                    // Random fan-in/out so degree features vary.
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let sw = adg.add_switch(SwitchSpec::new(w));
                        adg.add_link(sw, pe).unwrap();
                        adg.add_link(pe, sw).unwrap();
                    }
                    record(&adg, pe);
                }
            }
        }
    }
    // Switches across degree × width × decomposability.
    for &w in &widths {
        for degree in [2usize, 3, 4, 6, 8] {
            for decomp in [None, Some(BitWidth::B8)] {
                let mut adg = Adg::new("sample");
                let mut spec = SwitchSpec::new(w);
                if let Some(d) = decomp {
                    if d < w {
                        spec = spec.with_decompose_to(d);
                    }
                }
                let sw = adg.add_switch(spec);
                for _ in 0..degree {
                    let o = adg.add_switch(SwitchSpec::new(w));
                    adg.add_link(o, sw).unwrap();
                    adg.add_link(sw, o).unwrap();
                }
                record(&adg, sw);
            }
        }
    }
    // Sync and delay elements across depth × lanes.
    for depth in [2u16, 4, 8, 16, 32, 64] {
        for lanes in [1u8, 2, 4, 8] {
            let mut adg = Adg::new("sample");
            let sy = adg.add_sync(SyncSpec::new(depth).with_lanes(lanes));
            record(&adg, sy);
        }
        let mut adg = Adg::new("sample");
        let d = adg.add_delay(DelaySpec::new(depth.min(255) as u8));
        record(&adg, d);
    }
    // Memories across capacity × banks × controllers.
    for kb in [4u64, 8, 16, 32, 64] {
        for banks in [1u8, 2, 4, 8, 16] {
            for ctrl in [MemControllers::linear_only(), MemControllers::full()] {
                let mut adg = Adg::new("sample");
                let m = adg.add_memory(
                    MemSpec::scratchpad(kb << 10, 64)
                        .with_banks(banks)
                        .with_controllers(ctrl),
                );
                record(&adg, m);
            }
        }
    }

    (xs, areas, powers)
}

/// Ordinary least squares via normal equations + Gaussian elimination with
/// partial pivoting and ridge damping for stability.
fn least_squares(xs: &[[f64; N_FEATURES]], ys: &[f64]) -> [f64; N_FEATURES] {
    let n = N_FEATURES;
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut atb = vec![0.0f64; n];
    for (x, y) in xs.iter().zip(ys) {
        for i in 0..n {
            atb[i] += x[i] * y;
            for j in 0..n {
                ata[i][j] += x[i] * x[j];
            }
        }
    }
    // Ridge: keeps unused feature columns harmless.
    for (i, row) in ata.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    // Gaussian elimination with partial pivoting.
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|a, b| {
                ata[*a][col]
                    .abs()
                    .partial_cmp(&ata[*b][col].abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty range");
        ata.swap(col, pivot);
        atb.swap(col, pivot);
        let diag = ata[col][col];
        if diag.abs() < 1e-15 {
            continue;
        }
        for row in 0..n {
            if row == col {
                continue;
            }
            let factor = ata[row][col] / diag;
            let pivot_row = ata[col].clone();
            for (a, p) in ata[row][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *a -= factor * p;
            }
            atb[row] -= factor * atb[col];
        }
    }
    let mut out = [0.0; N_FEATURES];
    for i in 0..n {
        if ata[i][i].abs() > 1e-15 {
            out[i] = atb[i] / ata[i][i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use dsagen_adg::presets;

    use super::*;
    use crate::area::synthesize_adg;

    #[test]
    fn fit_is_deterministic() {
        let a = AreaPowerModel::fit(7);
        let b = AreaPowerModel::fit(7);
        assert_eq!(a, b);
    }

    #[test]
    fn estimate_tracks_synthesis_within_10_percent() {
        let model = AreaPowerModel::default();
        for adg in [
            presets::softbrain(),
            presets::spu(),
            presets::triggered(),
            presets::revel(),
            presets::maeri(),
            presets::dse_initial(),
        ] {
            let est = model.estimate_adg(&adg);
            let syn = synthesize_adg(&adg);
            let area_err = (syn.area_mm2 - est.area_mm2) / syn.area_mm2;
            let power_err = (syn.power_mw - est.power_mw) / syn.power_mw;
            assert!(
                (0.0..0.12).contains(&area_err),
                "{}: est {:.4} syn {:.4} err {:.3}",
                adg.name(),
                est.area_mm2,
                syn.area_mm2,
                area_err
            );
            assert!(
                (-0.02..0.12).contains(&power_err),
                "{}: power err {:.3}",
                adg.name(),
                power_err
            );
        }
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = AreaPowerModel::default();
        let adg = presets::spu();
        let total = model.estimate_adg(&adg);
        let parts = model.estimate_breakdown(&adg);
        let sum_area: f64 = parts.values().map(|c| c.area_mm2).sum();
        let sum_power: f64 = parts.values().map(|c| c.power_mw).sum();
        assert!((sum_area - total.area_mm2).abs() < 1e-9);
        assert!((sum_power - total.power_mw).abs() < 1e-9);
        assert!(parts.contains_key("pe") && parts.contains_key("switch"));
    }

    #[test]
    fn estimates_are_nonnegative_and_monotone_in_size() {
        let model = AreaPowerModel::default();
        let small = model.estimate_adg(&presets::cca());
        let big = model.estimate_adg(&presets::dse_initial());
        assert!(small.area_mm2 > 0.0);
        assert!(big.area_mm2 > small.area_mm2);
    }
}
