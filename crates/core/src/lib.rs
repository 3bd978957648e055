//! # DSAGEN — programmable spatial-accelerator synthesis
//!
//! A from-scratch Rust reproduction of *DSAGEN: Synthesizing Programmable
//! Spatial Accelerators* (Weng et al., ISCA 2020). The framework composes
//! decoupled-spatial hardware primitives into an architecture description
//! graph (ADG), compiles annotated kernels onto any such graph with
//! modular, feature-gated transformations, and co-designs hardware and
//! software by iterative graph search under a `perf²/mm²` objective.
//!
//! The subsystems live in dedicated crates, re-exported here:
//!
//! | module | crate | paper section |
//! |---|---|---|
//! | [`adg`] | `dsagen-adg` | §III hardware primitives & presets |
//! | [`dfg`] | `dsagen-dfg` | §IV decoupled IR & modular compilation |
//! | [`scheduler`] | `dsagen-scheduler` | §IV Alg. 1 + §V-A repair |
//! | [`model`] | `dsagen-model` | §V-B/C performance & area models |
//! | [`sim`] | `dsagen-sim` | §VII cycle-level simulator |
//! | [`dse`] | `dsagen-dse` | §V design-space exploration |
//! | [`hwgen`] | `dsagen-hwgen` | §VI hardware generation |
//! | [`workloads`] | `dsagen-workloads` | §VII Table I benchmarks |
//! | [`faults`] | `dsagen-faults` | fault injection & graceful degradation |
//!
//! This crate adds the top-level flows: [`compile`] (pick the best legal
//! kernel version for a given ADG), [`generate`] (bitstream + config paths
//! + structural RTL), and a re-export of [`dse::explore`].
//!
//! # Quickstart
//!
//! ```
//! use dsagen::prelude::*;
//!
//! // Target one of the paper's accelerators…
//! let adg = dsagen::adg::presets::softbrain();
//! // …compile one of the paper's workloads onto it…
//! let kernel = dsagen::workloads::machsuite::mm();
//! let compiled = dsagen::compile(&adg, &kernel, &CompileOptions::default())?;
//! // …and simulate it.
//! let report = dsagen::sim::simulate(
//!     &adg,
//!     &compiled.version,
//!     &compiled.schedule,
//!     &compiled.eval,
//!     compiled.config_path_len,
//!     &dsagen::sim::SimConfig::default(),
//! )?;
//! assert!(report.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

pub use dsagen_adg as adg;
pub use dsagen_dfg as dfg;
pub use dsagen_dse as dse;
pub use dsagen_faults as faults;
pub use dsagen_hwgen as hwgen;
pub use dsagen_model as model;
pub use dsagen_scheduler as scheduler;
pub use dsagen_service as service;
pub use dsagen_sim as sim;
pub use dsagen_store as store;
pub use dsagen_telemetry as telemetry;
pub use dsagen_workloads as workloads;

use std::error::Error;
use std::fmt;

use dsagen_adg::Adg;
use dsagen_dfg::{compile_kernel, enumerate_configs, CompiledKernel, Kernel};
use dsagen_hwgen::{generate_config_paths, Bitstream, ConfigPaths};
use dsagen_model::{PerfEstimate, PerfModel};
use dsagen_scheduler::{schedule, Evaluation, Problem, Schedule, SchedulerConfig, Start};

/// Commonly used items for `use dsagen::prelude::*`.
pub mod prelude {
    pub use crate::{
        compile, compile_traced, generate, recover, recover_with_degradation, CompileError,
        CompileOptions, Compiled, Hardware,
    };
    pub use dsagen_adg::{Adg, BitWidth, OpSet, Opcode, PeSpec, Scheduling, Sharing};
    pub use dsagen_dfg::{AffineExpr, Kernel, KernelBuilder, MemClass, TransformConfig, TripCount};
    pub use dsagen_dse::{explore, DseConfig};
    pub use dsagen_faults::{FaultLifetime, FaultSchedule, StormConfig};
    pub use dsagen_scheduler::SchedulerConfig;
    pub use dsagen_sim::{
        RecoveryError, RecoveryOutcome, RecoveryPolicy, RecoveryReport, RepairRung,
    };
}

/// Options for the top-level [`compile`] flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileOptions {
    /// Maximum vectorization degree enumerated (§IV-E).
    pub max_unroll: u16,
    /// Scheduler tunables.
    pub scheduler: SchedulerConfig,
    /// Number of configuration paths generated for the config-time charge.
    pub config_paths: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_unroll: 8,
            scheduler: SchedulerConfig::default(),
            config_paths: 4,
        }
    }
}

/// The outcome of compiling one kernel onto one ADG: the best legal
/// version (highest modeled performance), its schedule, and its estimate.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The chosen kernel version.
    pub version: CompiledKernel,
    /// Its spatial schedule.
    pub schedule: Schedule,
    /// The schedule's evaluation (timing facts for models/simulator).
    pub eval: Evaluation,
    /// The §V-B performance estimate.
    pub perf: PerfEstimate,
    /// Longest configuration path of the hardware (config-time charge).
    pub config_path_len: u32,
    /// How many candidate versions were tried.
    pub candidates_tried: usize,
}

/// Errors from the top-level flows.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The kernel itself is malformed.
    Kernel(dsagen_dfg::DfgError),
    /// No candidate version produced a legal schedule on this hardware
    /// (e.g. the fabric lacks required functional units entirely).
    NoLegalVersion {
        /// Kernel name.
        kernel: String,
        /// Target ADG name.
        adg: String,
        /// Candidates attempted.
        tried: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Kernel(e) => write!(f, "kernel error: {e}"),
            CompileError::NoLegalVersion { kernel, adg, tried } => write!(
                f,
                "no legal version of '{kernel}' maps onto '{adg}' ({tried} candidates tried)"
            ),
        }
    }
}

impl Error for CompileError {}

impl From<dsagen_dfg::DfgError> for CompileError {
    fn from(e: dsagen_dfg::DfgError) -> Self {
        CompileError::Kernel(e)
    }
}

/// Compiles `kernel` onto `adg`: enumerates modular-transformation
/// configurations gated by the hardware's features, compiles and schedules
/// each satisfiable version, and returns the one with the best modeled
/// performance (§IV-C "the compiler goes through each candidate of each
/// code transformation, and chooses one with the highest estimated
/// performance").
///
/// # Errors
///
/// [`CompileError::Kernel`] if the kernel is malformed;
/// [`CompileError::NoLegalVersion`] if nothing maps (the scalar fallback
/// exists for every kernel, so this only happens when the fabric is
/// fundamentally incompatible — e.g. no floating-point units for an FP
/// kernel).
pub fn compile(
    adg: &Adg,
    kernel: &Kernel,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    compile_traced(adg, kernel, opts, &dsagen_telemetry::Telemetry::disabled())
}

/// [`compile`] with phase spans reported into `tel`: one outer
/// `compile` span, per-candidate `schedule` spans (with legality and
/// reseed counts), and a `model` span per surviving candidate. Passing
/// [`dsagen_telemetry::Telemetry::disabled`] makes this byte-for-byte
/// identical to [`compile`] — instrumentation never changes which
/// version wins.
///
/// # Errors
///
/// Same contract as [`compile`].
pub fn compile_traced(
    adg: &Adg,
    kernel: &Kernel,
    opts: &CompileOptions,
    tel: &dsagen_telemetry::Telemetry,
) -> Result<Compiled, CompileError> {
    let mut compile_span = tel.span("phase", format!("compile {}", kernel.name));
    kernel.validate()?;
    let features = adg.features();
    let config_path_len = {
        let _span = tel.span("phase", "config-paths");
        generate_config_paths(adg, opts.config_paths, opts.scheduler.seed).longest() as u32
    };
    let perf_model = PerfModel::default();

    let mut best: Option<Compiled> = None;
    let mut tried = 0usize;
    for config in enumerate_configs(kernel, &features, opts.max_unroll) {
        let version = compile_kernel(kernel, &config, &features)?;
        if !version.requires.satisfied_by(&features) {
            continue;
        }
        tried += 1;
        // The stochastic scheduler occasionally needs a reseed on tightly
        // constrained topologies; give each version a few attempts.
        let mut sched_span = tel.span("phase", "schedule");
        let fresh = |cfg: &SchedulerConfig| {
            schedule(adg, &version, &Start::Empty, cfg, tel).expect("an empty start pins nothing")
        };
        let mut result = fresh(&opts.scheduler);
        let mut reseeds = 0u64;
        for retry in 1..3u64 {
            if result.is_legal() {
                break;
            }
            reseeds += 1;
            let reseeded = SchedulerConfig {
                seed: opts.scheduler.seed.wrapping_add(retry * 0x9E37_79B9),
                ..opts.scheduler
            };
            result = fresh(&reseeded);
        }
        sched_span.arg("candidate", tried);
        sched_span.arg("unroll", u64::from(version.config.unroll));
        sched_span.arg("legal", result.is_legal());
        sched_span.arg("reseeds", reseeds);
        sched_span.end();
        if !result.is_legal() {
            continue;
        }
        let perf = {
            let _span = tel.span("phase", "model");
            perf_model.estimate(
                adg,
                &version,
                &result.schedule,
                &result.eval,
                config_path_len,
            )
        };
        // Faster wins; performance ties break toward the version using
        // fewer instructions (less fabric, less energy — e.g. sub-word
        // packing at the same port-limited throughput).
        let better = best.as_ref().is_none_or(|b| {
            perf.cycles < b.perf.cycles * 0.999
                || (perf.cycles < b.perf.cycles * 1.001
                    && version.inst_count() < b.version.inst_count())
        });
        if better {
            best = Some(Compiled {
                version,
                schedule: result.schedule,
                eval: result.eval,
                perf,
                config_path_len,
                candidates_tried: 0,
            });
        }
    }
    compile_span.arg("candidates", tried);
    compile_span.arg("legal_version_found", best.is_some());
    compile_span.end();
    match best {
        Some(mut c) => {
            c.candidates_tried = tried;
            Ok(c)
        }
        None => Err(CompileError::NoLegalVersion {
            kernel: kernel.name.clone(),
            adg: adg.name().to_string(),
            tried,
        }),
    }
}

/// Generated hardware artifacts (§VI).
#[derive(Debug, Clone)]
pub struct Hardware {
    /// Per-component configuration bitstream for the compiled program.
    pub bitstream: Bitstream,
    /// Configuration paths covering every component.
    pub config_paths: ConfigPaths,
    /// Structural Verilog for the fabric.
    pub verilog: String,
}

/// Produces the §VI hardware artifacts for a compiled kernel on `adg`.
#[must_use]
pub fn generate(adg: &Adg, compiled: &Compiled, config_paths: usize, seed: u64) -> Hardware {
    let problem = Problem::new(adg, &compiled.version);
    Hardware {
        bitstream: Bitstream::encode_with_timing(&problem, &compiled.schedule, &compiled.eval),
        config_paths: generate_config_paths(adg, config_paths, seed),
        verilog: dsagen_hwgen::emit_verilog(adg),
    }
}

/// Runs a [`Compiled`] kernel on `adg` under a mid-execution
/// [`FaultSchedule`](dsagen_faults::FaultSchedule), recovering every
/// detected fault: checkpoint → online repair → verified reprogramming →
/// resume. Convenience wrapper over
/// [`dsagen_sim::run_with_recovery`] that unpacks the compiled artifact.
///
/// # Errors
///
/// A typed [`dsagen_sim::RecoveryError`] for every terminal failure mode
/// (`Unrecoverable` when repair exhausts its escalation budget). Never
/// panics.
pub fn recover(
    adg: &Adg,
    compiled: &Compiled,
    cfg: &dsagen_sim::SimConfig,
    faults: &dsagen_faults::FaultSchedule,
    policy: &dsagen_sim::RecoveryPolicy,
    tel: &dsagen_telemetry::Telemetry,
) -> Result<dsagen_sim::RecoveryReport, dsagen_sim::RecoveryError> {
    dsagen_sim::run_with_recovery(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        cfg,
        faults,
        policy,
        tel,
    )
}

/// [`recover`] with the recovery ladder's typed outcome: distinguishes
/// a full-fidelity [`dsagen_sim::RecoveryOutcome::Recovered`] finish from
/// a [`dsagen_sim::RecoveryOutcome::Degraded`] one (structural repair
/// exhausted; the run finished on the surviving fabric at a measured
/// fraction of fault-free throughput).
///
/// # Errors
///
/// A typed [`dsagen_sim::RecoveryError`] only when even the degraded-mode
/// reschedule cannot produce a legal mapping. Never panics.
pub fn recover_with_degradation(
    adg: &Adg,
    compiled: &Compiled,
    cfg: &dsagen_sim::SimConfig,
    faults: &dsagen_faults::FaultSchedule,
    policy: &dsagen_sim::RecoveryPolicy,
    tel: &dsagen_telemetry::Telemetry,
) -> Result<dsagen_sim::RecoveryOutcome, dsagen_sim::RecoveryError> {
    recover(adg, compiled, cfg, faults, policy, tel).map(dsagen_sim::RecoveryOutcome::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsagen_adg::presets;

    #[test]
    fn compile_picks_an_unrolled_version_for_mm() {
        let adg = presets::softbrain();
        let kernel = dsagen_workloads::machsuite::mm();
        let c = compile(&adg, &kernel, &CompileOptions::default()).unwrap();
        assert!(c.candidates_tried >= 2);
        assert!(c.version.config.unroll >= 1);
        assert!(c.perf.cycles > 0.0);
    }

    #[test]
    fn compile_errors_on_incompatible_fabric() {
        use dsagen_adg::*;
        // An integer-only fabric cannot host an FP kernel, even as fallback.
        let mut adg = Adg::new("int-only");
        let ctrl = adg.add_control(CtrlSpec::new());
        let mem = adg.add_memory(MemSpec::main_memory());
        let sy_in = adg.add_sync(SyncSpec::new(8));
        let sy_out = adg.add_sync(SyncSpec::new(8));
        let pe = adg.add_pe(PeSpec::new(
            Scheduling::Dynamic,
            Sharing::Dedicated,
            OpSet::integer_alu(),
        ));
        adg.add_link(ctrl, mem).unwrap();
        adg.add_link(mem, sy_in).unwrap();
        adg.add_link(sy_in, pe).unwrap();
        adg.add_link(sy_in, pe).unwrap();
        adg.add_link(pe, sy_out).unwrap();
        adg.add_link(sy_out, mem).unwrap();
        adg.validate().unwrap();

        let kernel = dsagen_workloads::machsuite::mm(); // FP multiply
        let err = compile(&adg, &kernel, &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::NoLegalVersion { .. }));
    }

    #[test]
    fn generate_produces_all_artifacts() {
        let adg = presets::softbrain();
        let kernel = dsagen_workloads::polybench::mm();
        let c = compile(&adg, &kernel, &CompileOptions::default()).unwrap();
        let hw = generate(&adg, &c, 4, 1);
        assert!(hw.bitstream.word_count() > 0);
        assert!(hw.config_paths.longest() > 0);
        assert!(hw.verilog.contains("dsagen_top"));
    }
}
