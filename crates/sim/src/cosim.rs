//! Co-simulation: the cycle-level timing engine and the dataflow
//! functional reference run in lockstep over one kernel execution.
//!
//! The timing engine is value-free by design — streams are compiled
//! access *patterns*, not array snapshots — so "did the accelerator
//! compute the right answer" decomposes into two contracts that this
//! module checks together:
//!
//! 1. **Delivery** — the cycle-level engine must drive every region to
//!    completion: the schedule must still be executable on the ADG (no
//!    dead nodes/edges, a live control core) and each region must fire
//!    exactly its compiled instance count. A region that stalls out or
//!    under-fires would silently drop dataflow instances in real
//!    hardware; [`CoSimError::FiringMismatch`] makes that loud.
//! 2. **Values** — the kernel's value semantics are produced by the
//!    dataflow interpreter ([`dsagen_dfg::interp::execute`]) over the
//!    same source kernel, yielding the output arrays a correct
//!    accelerator execution must match.
//!
//! [`simulate_functional`] returns both: the timing report and the
//! functional outputs. [`CoSimReport::outputs`] *is* `interp::execute`'s
//! result — the engine computes no values — so when the differential test
//! harness compares those outputs with its own `interp::execute` run, it
//! compares `execute` with `execute`: that shows the report carries the
//! interpreter's arrays untouched, not that they are right. The independent
//! value oracle is `tests/functional.rs`, which checks the interpreter
//! against hand-written reference implementations.

use std::collections::BTreeMap;

use dsagen_adg::Adg;
use dsagen_dfg::interp::{execute, ExecError};
use dsagen_dfg::{CompiledKernel, Kernel};
use dsagen_hwgen::{verify_round_trip_timed, VerifyError};
use dsagen_scheduler::{Evaluation, Problem, Schedule};

use crate::{try_simulate_verified, SimConfig, SimError, SimReport};

/// Why a co-simulation failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoSimError {
    /// The timing engine refused the schedule (stale hardware references).
    Sim(SimError),
    /// Bitstream round-trip verification failed: the configuration the
    /// encoder emits does not decode back to the schedule being simulated,
    /// so the hardware would be silently misprogrammed.
    Config(VerifyError),
    /// A region did not fire exactly its compiled instance count — the
    /// engine dropped or duplicated dataflow instances (e.g. a deadlock
    /// cut short by the cycle cap).
    FiringMismatch {
        /// Region index within the compiled kernel.
        region: usize,
        /// Firings the engine delivered.
        fired: u64,
        /// Instances the compiled region demands.
        expected: f64,
    },
    /// The functional reference itself failed (out-of-bounds access,
    /// malformed join/consume) — the kernel, not the hardware, is wrong.
    Exec(ExecError),
}

impl std::fmt::Display for CoSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoSimError::Sim(e) => write!(f, "timing engine rejected the schedule: {e}"),
            CoSimError::Config(e) => {
                write!(f, "configuration failed round-trip verification: {e}")
            }
            CoSimError::FiringMismatch {
                region,
                fired,
                expected,
            } => write!(
                f,
                "region {region} fired {fired} of {expected} compiled instances"
            ),
            CoSimError::Exec(e) => write!(f, "functional reference failed: {e}"),
        }
    }
}

impl std::error::Error for CoSimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoSimError::Sim(e) => Some(e),
            CoSimError::Config(e) => Some(e),
            CoSimError::Exec(e) => Some(e),
            CoSimError::FiringMismatch { .. } => None,
        }
    }
}

impl From<SimError> for CoSimError {
    fn from(e: SimError) -> Self {
        CoSimError::Sim(e)
    }
}

impl From<VerifyError> for CoSimError {
    fn from(e: VerifyError) -> Self {
        CoSimError::Config(e)
    }
}

impl From<ExecError> for CoSimError {
    fn from(e: ExecError) -> Self {
        CoSimError::Exec(e)
    }
}

/// One verified accelerator execution: cycle-level timing plus the
/// functional outputs the execution computes.
#[derive(Debug, Clone, PartialEq)]
pub struct CoSimReport {
    /// The cycle-level timing report.
    pub timing: SimReport,
    /// Output arrays by name (every array the kernel writes).
    pub outputs: BTreeMap<String, Vec<f64>>,
}

/// Runs the cycle-level engine and the functional reference together,
/// gated on configuration integrity.
///
/// Before any cycle is simulated the schedule is encoded to a bitstream
/// and round-trip verified ([`dsagen_hwgen::verify_round_trip_timed`]):
/// an encoder/decoder disagreement is a typed [`CoSimError::Config`]
/// rejection, never an undefined simulation. Then it fails if the
/// schedule references dead hardware, if any region's firing count
/// diverges from its compiled instance count (delivery contract), or if
/// the functional reference itself traps. On success the returned report
/// carries both the timing facts and the computed output arrays.
///
/// `inputs` maps array names to initial contents; arrays the kernel
/// declares but the map omits are zero-filled (matching
/// [`dsagen_dfg::interp::execute`]).
#[allow(clippy::too_many_arguments)] // mirrors `simulate` plus the kernel/inputs
pub fn simulate_functional(
    adg: &Adg,
    kernel: &Kernel,
    version: &CompiledKernel,
    schedule: &Schedule,
    eval: &Evaluation,
    config_path_len: u32,
    cfg: &SimConfig,
    inputs: &BTreeMap<String, Vec<f64>>,
) -> Result<CoSimReport, CoSimError> {
    let problem = Problem::new(adg, version);
    let config = verify_round_trip_timed(&problem, schedule, eval)?;
    let timing =
        try_simulate_verified(adg, version, schedule, eval, &config, config_path_len, cfg)?;
    for (ri, region) in version.regions.iter().enumerate() {
        let fired = timing.firings.get(ri).copied().unwrap_or(0);
        // Instance counts are products of trip counts and can be fractional
        // only for statistical patterns; a correct engine lands within
        // rounding of the demanded count.
        if (fired as f64 - region.instances).abs() > 0.5 {
            return Err(CoSimError::FiringMismatch {
                region: ri,
                fired,
                expected: region.instances,
            });
        }
    }
    let outputs = execute(kernel, inputs)?;
    Ok(CoSimReport { timing, outputs })
}

#[cfg(test)]
mod tests {
    use std::error::Error;

    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::SchedulerConfig;

    use crate::tests::fresh;

    use super::*;

    type TestResult = Result<(), Box<dyn Error>>;

    fn axpy(n: u64) -> Result<Kernel, Box<dyn Error>> {
        let mut k = KernelBuilder::new("axpy");
        let a = k.array("a", BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, n, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let two = r.imm(2);
        let m = r.bin(Opcode::Mul, va, two);
        let s = r.bin(Opcode::Add, m, vb);
        r.store(b, AffineExpr::var(i), s);
        k.finish_region(r);
        Ok(k.build()?)
    }

    #[test]
    fn cosim_reports_timing_and_values_together() -> TestResult {
        let adg = presets::softbrain();
        let kernel = axpy(64)?;
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal());
        let mut inputs = BTreeMap::new();
        inputs.insert("a".to_string(), (0..64).map(f64::from).collect::<Vec<_>>());
        inputs.insert("b".to_string(), vec![1.0; 64]);
        let report = simulate_functional(
            &adg,
            &kernel,
            &ck,
            &s.schedule,
            &s.eval,
            0,
            &SimConfig::default(),
            &inputs,
        )?;
        assert!(report.timing.cycles >= 64);
        let b = report.outputs.get("b").ok_or("output b missing")?;
        for (i, v) in b.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f64 + 1.0, "b[{i}]");
        }
        Ok(())
    }

    #[test]
    fn cosim_verifies_the_config_before_simulating() -> TestResult {
        // The verification gate must hold for a healthy run: the same
        // problem/schedule pair the cosim just accepted round-trips.
        let adg = presets::softbrain();
        let kernel = axpy(64)?;
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let problem = Problem::new(&adg, &ck);
        let config = verify_round_trip_timed(&problem, &s.schedule, &s.eval)?;
        assert!(config.matches(&s.schedule));
        assert!(config.word_count() > 0);
        // A token minted for a *different* schedule is refused with a
        // typed error, not an undefined simulation.
        let mut other = s.schedule.clone();
        if let Some(slot) = other.placement.iter_mut().find(|p| p.is_some()) {
            *slot = None;
        }
        let err = try_simulate_verified(
            &adg,
            &ck,
            &other,
            &s.eval,
            &config,
            0,
            &SimConfig::default(),
        )
        .err()
        .ok_or("mismatched token must be refused")?;
        assert!(
            matches!(err, SimError::UnverifiedConfig { .. }),
            "got {err}"
        );
        Ok(())
    }

    #[test]
    fn cosim_rejects_stale_schedule() -> TestResult {
        let mut adg = presets::softbrain();
        let kernel = axpy(64)?;
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let victim = s
            .schedule
            .placement
            .iter()
            .flatten()
            .copied()
            .next()
            .ok_or("something placed")?;
        adg.remove_node(victim)?;
        let err = simulate_functional(
            &adg,
            &kernel,
            &ck,
            &s.schedule,
            &s.eval,
            0,
            &SimConfig::default(),
            &BTreeMap::new(),
        )
        .err()
        .ok_or("stale schedule must fail")?;
        assert!(matches!(err, CoSimError::Sim(_)), "got {err}");
        assert!(!err.to_string().is_empty());
        Ok(())
    }

    #[test]
    fn cosim_flags_underfired_regions() -> TestResult {
        // A starved cycle cap cuts the region short: the engine cannot
        // deliver every instance and the mismatch must be loud.
        let adg = presets::softbrain();
        let kernel = axpy(4096)?;
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal());
        let err = simulate_functional(
            &adg,
            &kernel,
            &ck,
            &s.schedule,
            &s.eval,
            0,
            &SimConfig { max_cycles: 16 },
            &BTreeMap::new(),
        )
        .err()
        .ok_or("16-cycle cap cannot deliver 4096 instances")?;
        match err {
            CoSimError::FiringMismatch {
                region,
                fired,
                expected,
            } => {
                assert_eq!(region, 0);
                assert!((fired as f64) < expected);
            }
            other => return Err(format!("unexpected error {other}").into()),
        }
        Ok(())
    }
}
