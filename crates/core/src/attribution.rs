//! Model-vs-sim attribution: *why* do the analytical model (§V-B) and
//! the cycle-level simulator (§VII) disagree on a design point?
//!
//! The paper validates the model against simulation only as a scalar
//! error (Fig 15 bottom: mean 7%). This module makes the comparison
//! queryable: for any compiled kernel it joins the model's predicted
//! bottleneck term (the `max()` the per-region cycle count came from —
//! compute, memory, recurrence, or control) against the simulator's
//! measured stall taxonomy, and reports per-region and per-kernel error
//! plus whether the two agree on *what* the bottleneck is.

use std::fmt::Write as _;

use dsagen_adg::Adg;
use dsagen_model::RegionPerf;
use dsagen_sim::telemetry::RegionTally;
use dsagen_sim::{simulate_instrumented, SimConfig, SimReport, SimTelemetry, StallTaxonomy};
use dsagen_telemetry::{escape_json, EventData, Telemetry};

use crate::Compiled;

/// The model's binding term for one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// `instances × effective II` dominates (fabric-limited).
    Compute,
    /// A memory's bandwidth dominates.
    Memory,
    /// A loop-carried dependence dominates.
    Recurrence,
    /// Control-core scalar work / command issue dominates.
    Ctrl,
}

impl Bottleneck {
    /// Short label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::Compute => "compute",
            Bottleneck::Memory => "memory",
            Bottleneck::Recurrence => "recurrence",
            Bottleneck::Ctrl => "ctrl",
        }
    }

    /// The binding term of one modeled region.
    #[must_use]
    pub fn of(perf: &RegionPerf) -> Bottleneck {
        let terms = [
            (Bottleneck::Compute, perf.compute_cycles),
            (Bottleneck::Memory, perf.memory_cycles),
            (Bottleneck::Recurrence, perf.recurrence_cycles),
            (Bottleneck::Ctrl, perf.ctrl_cycles),
        ];
        terms
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(Bottleneck::Compute, |t| t.0)
    }

    /// Whether a measured dominant stall/state label is the symptom this
    /// predicted bottleneck would produce in the engine.
    ///
    /// * `Compute` — the fabric fires almost every cycle or waits only on
    ///   its own initiation interval (`busy`, `ii`).
    /// * `Memory` — streams starve the fabric (`operand-wait`) or
    ///   backpressure it (`backpressure`), or arbitration loses cycles
    ///   (`memory`).
    /// * `Recurrence` — the engine folds recurrence gating into the
    ///   firing interval (`ii`).
    /// * `Ctrl` — control-fed streams throttle the region
    ///   (`operand-wait` on the fabric side, `ctrl` at stream level).
    #[must_use]
    pub fn explains(self, measured: &str) -> bool {
        match self {
            Bottleneck::Compute => matches!(measured, "busy" | "ii" | "none"),
            Bottleneck::Memory => {
                matches!(measured, "operand-wait" | "backpressure" | "memory")
            }
            Bottleneck::Recurrence => matches!(measured, "ii" | "busy"),
            Bottleneck::Ctrl => matches!(measured, "operand-wait" | "ctrl"),
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The dominant measured state of one region: `busy` if it fired more
/// cycles than it lost to any single stall cause, otherwise the largest
/// exclusive stall cause.
#[must_use]
pub fn measured_dominant(tally: &RegionTally) -> (&'static str, u64) {
    let candidates = [
        ("busy", tally.fired_cycles),
        ("operand-wait", tally.operands),
        ("backpressure", tally.backpressure),
        ("ii", tally.ii),
    ];
    let best = candidates
        .iter()
        .max_by_key(|(_, c)| *c)
        .copied()
        .unwrap_or(("none", 0));
    if best.1 == 0 {
        ("none", 0)
    } else {
        best
    }
}

/// One region's joined prediction/measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionAttribution {
    /// Region index within the kernel.
    pub region: usize,
    /// Modeled cycles for the region.
    pub predicted_cycles: f64,
    /// The model's binding term.
    pub predicted_bottleneck: Bottleneck,
    /// Simulated cycles for the region (within its group timeline).
    pub measured_cycles: u64,
    /// Dominant measured state label (`busy` or a stall cause).
    pub measured_dominant: &'static str,
    /// Cycles of the dominant state.
    pub measured_dominant_cycles: u64,
    /// Whether the measured symptom is one the predicted bottleneck
    /// explains (see [`Bottleneck::explains`]).
    pub agrees: bool,
}

/// The full model-vs-sim attribution for one kernel on one ADG — the
/// paper's Fig 15-bottom validation, now queryable per design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Kernel name.
    pub kernel: String,
    /// ADG name.
    pub adg: String,
    /// Model-predicted total cycles.
    pub predicted_cycles: f64,
    /// Simulator-measured total cycles.
    pub measured_cycles: u64,
    /// Relative error `|predicted − measured| / measured`.
    pub error: f64,
    /// Per-region joins.
    pub regions: Vec<RegionAttribution>,
    /// Whole-run measured stall taxonomy.
    pub taxonomy: StallTaxonomy,
    /// The public simulation report the measurement came from.
    pub report: SimReport,
}

impl Attribution {
    /// Fraction of regions where model and simulator agree on the
    /// bottleneck.
    #[must_use]
    pub fn agreement_rate(&self) -> f64 {
        if self.regions.is_empty() {
            return 1.0;
        }
        self.regions.iter().filter(|r| r.agrees).count() as f64 / self.regions.len() as f64
    }

    /// Hand-rendered JSON object (the vendored serde is a no-op).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"kernel\":\"{}\",\"adg\":\"{}\",\"predicted_cycles\":{:.1},\
\"measured_cycles\":{},\"error\":{:.4},\"agreement_rate\":{:.3},\"taxonomy\":{},\"regions\":[",
            escape_json(&self.kernel),
            escape_json(&self.adg),
            self.predicted_cycles,
            self.measured_cycles,
            self.error,
            self.agreement_rate(),
            self.taxonomy.to_json()
        );
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"region\":{},\"predicted_cycles\":{:.1},\"predicted_bottleneck\":\"{}\",\
\"measured_cycles\":{},\"measured_dominant\":\"{}\",\"measured_dominant_cycles\":{},\
\"agrees\":{}}}",
                r.region,
                r.predicted_cycles,
                r.predicted_bottleneck,
                r.measured_cycles,
                r.measured_dominant,
                r.measured_dominant_cycles,
                r.agrees
            );
        }
        s.push_str("]}");
        s
    }
}

/// Joins the analytical model's prediction against an instrumented
/// simulation of `compiled` on `adg`, emitting an `attribution` event
/// into `tel` and returning the per-region error table.
///
/// # Errors
///
/// Propagates the simulator's typed error if the schedule references
/// hardware absent from `adg` (see [`dsagen_sim::simulate`]).
pub fn attribute(
    adg: &Adg,
    kernel_name: &str,
    compiled: &Compiled,
    sim_cfg: &SimConfig,
    tel: &Telemetry,
) -> Result<Attribution, dsagen_sim::SimError> {
    let (report, hw) = simulate_instrumented(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        sim_cfg,
        tel,
    )?;
    let a = join(adg, kernel_name, compiled, report, &hw);
    let (err, rate) = (a.error, a.agreement_rate());
    tel.emit(|| {
        EventData::new("attribution", kernel_name.to_string())
            .arg("predicted_cycles", a.predicted_cycles)
            .arg("measured_cycles", a.measured_cycles)
            .arg("error", err)
            .arg("agreement_rate", rate)
    });
    Ok(a)
}

/// Pure join of a model estimate and an instrumented simulation (no
/// telemetry side effects) — used by [`attribute`] and directly by
/// tests.
#[must_use]
pub fn join(
    adg: &Adg,
    kernel_name: &str,
    compiled: &Compiled,
    report: SimReport,
    hw: &SimTelemetry,
) -> Attribution {
    let predicted = &compiled.perf;
    let mut regions = Vec::with_capacity(predicted.regions.len());
    for (ri, rp) in predicted.regions.iter().enumerate() {
        let bottleneck = Bottleneck::of(rp);
        let tally = hw.region_tallies.get(ri).copied().unwrap_or_default();
        let (label, cycles) = measured_dominant(&tally);
        regions.push(RegionAttribution {
            region: ri,
            predicted_cycles: rp.cycles,
            predicted_bottleneck: bottleneck,
            measured_cycles: report.region_cycles.get(ri).copied().unwrap_or(0),
            measured_dominant: label,
            measured_dominant_cycles: cycles,
            agrees: bottleneck.explains(label),
        });
    }
    let measured_cycles = report.cycles;
    Attribution {
        kernel: kernel_name.to_string(),
        adg: adg.name().to_string(),
        predicted_cycles: predicted.cycles,
        measured_cycles,
        error: (predicted.cycles - measured_cycles as f64).abs() / measured_cycles.max(1) as f64,
        regions,
        taxonomy: hw.taxonomy,
        report,
    }
}

/// Renders a fixed-width per-kernel error table from several
/// attributions (one row per kernel) — the Fig 15-bottom validation as
/// text.
#[must_use]
pub fn attribution_table(rows: &[Attribution]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>7}  {:<11} {:<13} {:>6}",
        "kernel", "model", "sim", "err%", "predicted", "measured", "agree"
    );
    let _ = writeln!(out, "{}", "-".repeat(80));
    for a in rows {
        // Kernel-level bottleneck: the longest-running region decides.
        let lead = a
            .regions
            .iter()
            .max_by(|x, y| x.predicted_cycles.total_cmp(&y.predicted_cycles));
        let (pred, meas, agrees) = match lead {
            Some(r) => (
                r.predicted_bottleneck.label(),
                r.measured_dominant,
                r.agrees,
            ),
            None => ("-", "-", true),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>10.0} {:>10} {:>6.1}%  {:<11} {:<13} {:>6}",
            a.kernel,
            a.predicted_cycles,
            a.measured_cycles,
            a.error * 100.0,
            pred,
            meas,
            if agrees { "yes" } else { "NO" }
        );
    }
    if !rows.is_empty() {
        let mean_err = rows.iter().map(|a| a.error).sum::<f64>() / rows.len() as f64;
        let max_err = rows.iter().map(|a| a.error).fold(0.0f64, f64::max);
        let agree = rows.iter().map(Attribution::agreement_rate).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(out, "{}", "-".repeat(80));
        let _ = writeln!(
            out,
            "mean error {:.1}%   max error {:.1}%   bottleneck agreement {:.0}%",
            mean_err * 100.0,
            max_err * 100.0,
            agree * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};
    use dsagen_adg::presets;

    #[test]
    fn attribution_joins_model_and_sim() {
        let adg = presets::softbrain();
        let kernel = dsagen_workloads::machsuite::mm();
        let c = compile(&adg, &kernel, &CompileOptions::default()).unwrap();
        let tel = Telemetry::in_memory();
        let a = attribute(&adg, "mm", &c, &SimConfig::default(), &tel).unwrap();
        assert_eq!(a.kernel, "mm");
        assert!(a.measured_cycles > 0);
        assert!(a.predicted_cycles > 0.0);
        assert!(a.error.is_finite());
        assert_eq!(a.regions.len(), c.version.regions.len());
        for r in &a.regions {
            assert!(r.predicted_cycles > 0.0);
        }
        // The attribution event and sim counters landed in the sink.
        let events = tel.events();
        assert!(events.iter().any(|e| e.cat == "attribution"));
        assert!(events.iter().any(|e| e.cat == "sim.counters"));
        // Table and JSON render without panicking and mention the kernel.
        let table = attribution_table(std::slice::from_ref(&a));
        assert!(table.contains("mm"));
        assert!(table.contains("mean error"));
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"kernel\":\"mm\""));
    }

    #[test]
    fn bottleneck_of_picks_max_term() {
        let rp = RegionPerf {
            cycles: 100.0,
            compute_cycles: 10.0,
            memory_cycles: 100.0,
            recurrence_cycles: 5.0,
            ctrl_cycles: 1.0,
            activity: 0.1,
        };
        assert_eq!(Bottleneck::of(&rp), Bottleneck::Memory);
        assert!(Bottleneck::Memory.explains("operand-wait"));
        assert!(!Bottleneck::Compute.explains("backpressure"));
    }
}
