//! Analytical performance and power/area models for DSAGEN (§V-B, §V-C).
//!
//! * [`PerfModel`] estimates a scheduled kernel version's cycles from its
//!   streams, schedule timing facts, and control-core costs — the
//!   `IPC = #Insts × ActivityRatio` model of §V-B, with activity limited by
//!   memory bandwidth, recurrences, instruction multiplexing, and the
//!   control core.
//! * [`AreaPowerModel`] is the regression model of §V-C, fitted on a
//!   sampled per-component dataset of `synthesize_component` — our
//!   synthetic stand-in for Synopsys DC at UMC 28 nm (see DESIGN.md for the
//!   substitution rationale). [`synthesize_adg`] plays the role of
//!   full-fabric synthesis for Fig 15's model validation.
//! * [`objective`] computes the DSE objective `perf² / mm²` (§V).
//!
//! # Example
//!
//! ```
//! use dsagen_adg::presets;
//! use dsagen_model::{synthesize_adg, AreaPowerModel};
//!
//! let adg = presets::softbrain();
//! let model = AreaPowerModel::default();
//! let est = model.estimate_adg(&adg);
//! let syn = synthesize_adg(&adg);
//! // The regression estimate lands a few percent below "synthesis".
//! assert!(est.area_mm2 < syn.area_mm2);
//! assert!(est.area_mm2 > 0.85 * syn.area_mm2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod area;
mod perf;
mod regress;
pub mod scaled;

pub use area::{synthesize_adg, HwCost};
pub use perf::{PerfEstimate, PerfModel, RegionPerf};
pub use regress::AreaPowerModel;

/// The design-space-exploration objective `perf² / mm²` (§V step 3).
///
/// `perf` is a throughput figure (IPC or 1/time — any consistent unit);
/// `area_mm2` must be positive.
#[must_use]
pub fn objective(perf: f64, area_mm2: f64) -> f64 {
    perf * perf / area_mm2.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_prefers_fast_and_small() {
        assert!(objective(2.0, 1.0) > objective(1.0, 1.0));
        assert!(objective(1.0, 0.5) > objective(1.0, 1.0));
        // perf² means performance dominates: 2× perf beats 2× area.
        assert!(objective(2.0, 2.0) > objective(1.0, 1.0));
    }

    #[test]
    fn objective_handles_zero_area() {
        assert!(objective(1.0, 0.0).is_finite());
    }
}
