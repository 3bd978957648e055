//! Cycle-level simulator for DSAGEN accelerators (§VII "Simulation").
//!
//! The paper implements "a cycle-level simulator for all ADG components"
//! integrated with a gem5 RISC-V control core. This crate provides the
//! equivalent: a cycle-by-cycle engine that models
//!
//! * the control core issuing stream commands (one at a time, fixed cost)
//!   and executing scalar fallback code,
//! * memories arbitrating line requests (linear streams) and bank-parallel
//!   gathers (indirect/atomic streams) into port FIFOs, including re-issue
//!   pauses for command-heavy access patterns,
//! * synchronization-element FIFOs with backpressure, and
//! * dataflow firing gated by operand availability, initiation interval,
//!   unabsorbed operand mismatch, and recurrence latency.
//!
//! Its purpose in the reproduction is twofold: it produces the "measured"
//! performance numbers for Fig 10/12, and it validates the §V-B analytical
//! model (Fig 15 bottom — mean 7% error, worst-case from command-heavy
//! kernels the model cannot see).
//!
//! # Example
//!
//! ```
//! use dsagen_adg::{presets, BitWidth, Opcode};
//! use dsagen_dfg::*;
//! use dsagen_scheduler::{schedule, SchedulerConfig, Start};
//! use dsagen_sim::{simulate, SimConfig};
//! use dsagen_telemetry::Telemetry;
//!
//! let adg = presets::softbrain();
//! let mut k = KernelBuilder::new("scale");
//! let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
//! let mut r = k.region("body", 1.0);
//! let i = r.for_loop(TripCount::fixed(256), true);
//! let v = r.load(a, AffineExpr::var(i));
//! let two = r.imm(2);
//! let w = r.bin(Opcode::Mul, v, two);
//! r.store(a, AffineExpr::var(i), w);
//! k.finish_region(r);
//! let kernel = k.build()?;
//! let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features())?;
//! let cfg = SchedulerConfig::default();
//! let sched = schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled())?;
//! let report = simulate(&adg, &ck, &sched.schedule, &sched.eval, 0, &SimConfig::default())?;
//! assert!(report.cycles >= 256);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cosim;
pub mod domains;
mod engine;
pub mod recovery;
pub mod runtime;
pub mod telemetry;

pub use cosim::{simulate_functional, CoSimError, CoSimReport};
pub use domains::RecoveryDomains;
pub use engine::{simulate, simulate_instrumented};
pub use recovery::{
    run_with_degradation, run_with_recovery, RecoveryAction, RecoveryError, RecoveryEvent,
    RecoveryOutcome, RecoveryPolicy, RecoveryReport, RepairRung,
};
pub use runtime::{
    Detector, RuntimeConfig, RuntimeFault, RuntimeSim, SimCheckpoint, StepOutcome,
};
pub use telemetry::{PeCounters, SimTelemetry, StallTaxonomy, StreamCounters};

/// Why a simulation could not run: the schedule references hardware the
/// (possibly fault-degraded) ADG no longer has, or the configuration was
/// never verified against the schedule being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The ADG has no control core to issue stream commands.
    NoControlCore,
    /// A placement references a node absent from the ADG.
    MissingNode {
        /// Index of the placed entity.
        entity: usize,
        /// The missing node.
        node: dsagen_adg::NodeId,
    },
    /// A route references an edge absent from the ADG.
    MissingEdge {
        /// Index of the routed virtual edge.
        route: usize,
        /// The missing edge.
        edge: dsagen_adg::EdgeId,
    },
    /// The supplied [`dsagen_hwgen::VerifiedConfig`] was minted against a
    /// different schedule — simulating it would model hardware programmed
    /// with the wrong bitstream.
    UnverifiedConfig {
        /// Digest the configuration was verified against.
        expected: u64,
        /// Digest of the schedule handed to the simulator.
        got: u64,
    },
    /// A [`dsagen_faults::FaultSchedule`] contains a fault kind that
    /// cannot strike mid-execution (config-plane kinds corrupt the
    /// programming stream, which is already loaded by cycle 0).
    UnsupportedRuntimeFault {
        /// The offending kind.
        kind: dsagen_faults::FaultKind,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoControlCore => write!(f, "adg has no control core"),
            SimError::MissingNode { entity, node } => {
                write!(f, "entity {entity} is placed on missing node {node}")
            }
            SimError::MissingEdge { route, edge } => {
                write!(f, "route {route} uses missing edge {edge}")
            }
            SimError::UnverifiedConfig { expected, got } => write!(
                f,
                "config verified against schedule digest {expected:#018x}, \
but simulating digest {got:#018x}"
            ),
            SimError::UnsupportedRuntimeFault { kind } => {
                write!(f, "fault kind {kind} cannot strike mid-execution")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// [`simulate`] gated on a verified configuration: refuses to run
/// unless `config` (a capability token minted by
/// [`dsagen_hwgen::verify_round_trip`]) was verified against exactly the
/// schedule being simulated. This is the trust boundary of §VII — an
/// encoder/decoder disagreement can never reach the cycle engine.
///
/// # Errors
///
/// [`SimError::UnverifiedConfig`] if the token does not match `schedule`,
/// otherwise whatever [`simulate`] reports.
#[allow(clippy::too_many_arguments)] // mirrors `simulate` plus the token
pub fn try_simulate_verified(
    adg: &dsagen_adg::Adg,
    version: &dsagen_dfg::CompiledKernel,
    schedule: &dsagen_scheduler::Schedule,
    eval: &dsagen_scheduler::Evaluation,
    config: &dsagen_hwgen::VerifiedConfig,
    config_path_len: u32,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    if !config.matches(schedule) {
        return Err(SimError::UnverifiedConfig {
            expected: config.schedule_digest(),
            got: dsagen_hwgen::schedule_digest(schedule),
        });
    }
    simulate(adg, version, schedule, eval, config_path_len, cfg)
}

/// Simulator limits and switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Hard cap on simulated cycles per pipeline group (deadlock guard).
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_cycles: 50_000_000,
        }
    }
}

/// Where firing opportunities were lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Memory port busy (arbitration loss).
    pub memory: u64,
    /// Operands not yet buffered.
    pub operands: u64,
    /// Output FIFO full.
    pub backpressure: u64,
    /// Initiation interval / recurrence gating.
    pub ii: u64,
    /// Waiting on control-core scalar work.
    pub ctrl: u64,
}

/// The result of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles, including configuration load and inter-group barriers.
    pub cycles: u64,
    /// Cycle at which each region finished (within its group's timeline).
    pub region_cycles: Vec<u64>,
    /// Dataflow firings per region.
    pub firings: Vec<u64>,
    /// Cycles in which each region actually fired (occupancy numerator).
    pub active_cycles: Vec<u64>,
    /// Achieved instructions per cycle.
    pub ipc: f64,
    /// Stall accounting.
    pub stalls: StallBreakdown,
}

impl SimReport {
    /// Fabric occupancy of one region: firing cycles over its total
    /// cycles (1.0 = perfectly pipelined, the paper's "activity ratio").
    #[must_use]
    pub fn occupancy(&self, region: usize) -> f64 {
        let total = self.region_cycles.get(region).copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        self.active_cycles.get(region).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Execution time in microseconds at `clock_ghz`.
    #[must_use]
    pub fn micros(&self, clock_ghz: f64) -> f64 {
        self.cycles as f64 / (clock_ghz * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_model::PerfModel;
    use dsagen_scheduler::{schedule, ScheduleResult, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;

    use super::*;

    /// `kernel` scheduled onto `adg` from scratch, untraced.
    pub(crate) fn fresh(
        adg: &dsagen_adg::Adg,
        kernel: &dsagen_dfg::CompiledKernel,
        cfg: &SchedulerConfig,
    ) -> ScheduleResult {
        schedule(adg, kernel, &Start::Empty, cfg, &Telemetry::disabled())
            .expect("nothing is pinned")
    }

    fn dot(n: u64) -> dsagen_dfg::Kernel {
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, n, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, n, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    fn run(
        adg: &dsagen_adg::Adg,
        kernel: &dsagen_dfg::Kernel,
        cfg: &TransformConfig,
    ) -> (dsagen_dfg::CompiledKernel, SimReport, f64) {
        let ck = compile_kernel(kernel, cfg, &adg.features()).unwrap();
        let s = fresh(adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal(), "schedule: {:?}", s.eval);
        let report = simulate(adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default()).unwrap();
        let est = PerfModel::default().estimate(adg, &ck, &s.schedule, &s.eval, 0);
        (ck, report, est.cycles)
    }

    #[test]
    fn dot_completes_all_firings() {
        let adg = presets::softbrain();
        let (ck, report, _) = run(&adg, &dot(1024), &TransformConfig::fallback());
        assert_eq!(report.firings[0] as f64, ck.regions[0].instances);
        assert!(report.cycles >= 1024);
        assert!(report.cycles < 8 * 1024, "cycles {}", report.cycles);
    }

    #[test]
    fn unrolling_speeds_up_simulation() {
        let adg = presets::softbrain();
        let (_, scalar, _) = run(&adg, &dot(4096), &TransformConfig::fallback());
        let (_, unrolled, _) = run(
            &adg,
            &dot(4096),
            &TransformConfig {
                unroll: 4,
                ..TransformConfig::fallback()
            },
        );
        assert!(
            (unrolled.cycles as f64) < scalar.cycles as f64 * 0.5,
            "unrolled {} scalar {}",
            unrolled.cycles,
            scalar.cycles
        );
    }

    #[test]
    fn model_tracks_simulation_within_35_percent() {
        // Fig 15 bottom: mean error 7%, max 30%. Individual kernels can
        // diverge; dot should be close.
        let adg = presets::softbrain();
        let (_, report, est_cycles) = run(&adg, &dot(4096), &TransformConfig::fallback());
        let err = (report.cycles as f64 - est_cycles).abs() / report.cycles as f64;
        assert!(
            err < 0.35,
            "sim {} vs model {est_cycles} (err {err:.2})",
            report.cycles
        );
    }

    #[test]
    fn config_path_adds_cycles() {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let short = simulate(&adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default()).unwrap();
        let long = simulate(&adg, &ck, &s.schedule, &s.eval, 300, &SimConfig::default()).unwrap();
        assert_eq!(long.cycles, short.cycles + 300);
    }

    #[test]
    fn scalar_indirect_fallback_is_much_slower_than_hw_indirect() {
        let mut k = KernelBuilder::new("gather");
        let a = k.array("a", BitWidth::B64, 8192, MemClass::Scratchpad);
        let b = k.array("b", BitWidth::B64, 2048, MemClass::MainMemory);
        let s_ = k.array("s", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(2048), true);
        let v = r.load_indirect(a, b, AffineExpr::var(i));
        let acc = r.reduce(Opcode::Add, v, i);
        r.store(s_, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();

        let spu = presets::spu();
        let (_, with_hw, _) = run(
            &spu,
            &kernel,
            &TransformConfig {
                indirect: true,
                ..TransformConfig::fallback()
            },
        );
        let (_, without, _) = run(&spu, &kernel, &TransformConfig::fallback());
        assert!(
            with_hw.cycles * 2 < without.cycles,
            "hw {} vs scalar {}",
            with_hw.cycles,
            without.cycles
        );
    }

    #[test]
    fn occupancy_reflects_pipelining() {
        let adg = presets::softbrain();
        let (_, report, _) = run(&adg, &dot(2048), &TransformConfig::fallback());
        // A fully-pipelined dot should fire nearly every cycle of its
        // region's lifetime.
        let occ = report.occupancy(0);
        assert!((0.5..=1.0).contains(&occ), "occupancy {occ}");
        assert_eq!(report.active_cycles[0], report.firings[0]);
    }

    #[test]
    fn try_simulate_matches_simulate_on_healthy_hardware() {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let direct =
            simulate(&adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default()).unwrap();
        let checked =
            simulate(&adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default()).unwrap();
        assert_eq!(direct, checked);
    }

    #[test]
    fn try_simulate_rejects_schedule_on_dead_node() {
        let mut adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(s.is_legal());
        // Kill a node the schedule uses, then simulate the *stale* schedule.
        let victim = s
            .schedule
            .placement
            .iter()
            .flatten()
            .copied()
            .next()
            .expect("something is placed");
        adg.remove_node(victim).unwrap();
        let err = simulate(&adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default())
            .expect_err("stale schedule must be rejected");
        match err {
            SimError::MissingNode { node, .. } => assert_eq!(node, victim),
            // Removing the node also removes its edges, so a route may be
            // caught first — equally acceptable.
            SimError::MissingEdge { .. } => {}
            other => panic!("unexpected error {other}"),
        }
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn try_simulate_rejects_schedule_on_severed_link() {
        let mut adg = presets::softbrain();
        let ck = compile_kernel(&dot(256), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let used_edge = s
            .schedule
            .routes
            .values()
            .flatten()
            .copied()
            .next()
            .expect("something is routed");
        adg.remove_edge(used_edge).unwrap();
        let err = simulate(&adg, &ck, &s.schedule, &s.eval, 0, &SimConfig::default())
            .expect_err("stale route must be rejected");
        assert!(
            matches!(err, SimError::MissingEdge { edge, .. } if edge == used_edge),
            "unexpected error {err}"
        );
    }

    #[test]
    fn instrumented_run_is_invisible_and_conserves_cycles() {
        let adg = presets::softbrain();
        let ck = compile_kernel(&dot(1024), &TransformConfig::fallback(), &adg.features()).unwrap();
        let s = fresh(&adg, &ck, &SchedulerConfig::default());
        let plain =
            simulate(&adg, &ck, &s.schedule, &s.eval, 37, &SimConfig::default()).unwrap();
        let tel = dsagen_telemetry::Telemetry::in_memory();
        let (instrumented, hw) = simulate_instrumented(
            &adg,
            &ck,
            &s.schedule,
            &s.eval,
            37,
            &SimConfig::default(),
            &tel,
        )
        .unwrap();
        // Instrumentation must not perturb the simulation.
        assert_eq!(plain, instrumented);
        assert_eq!(hw.cycles, plain.cycles);
        assert_eq!(hw.config_cycles, 37);
        // Per-PE conservation: busy + idle + stalled == cycles, taxonomy
        // covers every stall.
        assert!(!hw.pes.is_empty(), "dot maps ops onto PEs");
        for pe in &hw.pes {
            assert_eq!(pe.busy + pe.idle + pe.stalled, pe.cycles, "{pe:?}");
            assert_eq!(pe.stalls.total(), pe.stalled, "{pe:?}");
            assert_eq!(pe.fired, plain.firings[pe.region]);
            assert_eq!(pe.busy, plain.active_cycles[pe.region]);
        }
        // Aggregate taxonomy ties back to the public stall breakdown.
        let t = &hw.taxonomy;
        assert_eq!(t.backpressure, plain.stalls.backpressure);
        assert_eq!(t.operand_wait, plain.stalls.operands);
        assert_eq!(t.memory, plain.stalls.memory);
        assert_eq!(t.ii, plain.stalls.ii);
        assert_eq!(t.ctrl, plain.stalls.ctrl);
        assert_eq!(t.config, 37);
        // Streams moved every element and observed a sane high-water mark.
        assert!(!hw.streams.is_empty());
        for st in &hw.streams {
            assert!(st.fifo_highwater <= st.fifo_cap + 1e-9, "{st:?}");
            assert!(st.elems > 0.0);
            assert!(st.issued > 0);
        }
        // Counter events landed in the sink.
        let events = tel.events();
        assert!(events.iter().any(|e| e.cat == "phase" && e.name == "simulate"));
        assert!(events.iter().any(|e| e.cat == "sim.counters"));
        // And the JSON rendering is balanced.
        let json = hw.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn deterministic() {
        let adg = presets::softbrain();
        let (_, a, _) = run(&adg, &dot(512), &TransformConfig::fallback());
        let (_, b, _) = run(&adg, &dot(512), &TransformConfig::fallback());
        assert_eq!(a, b);
    }

    #[test]
    fn pipelined_regions_overlap() {
        // Producer-consumer with forwarding should beat the barrier version.
        let build = || {
            let mut k = KernelBuilder::new("pc");
            let a = k.array("a", BitWidth::B64, 4096, MemClass::MainMemory);
            let b = k.array("b", BitWidth::B64, 4096, MemClass::MainMemory);
            let d = k.array("d", BitWidth::B64, 4096, MemClass::MainMemory);
            let mut r0 = k.region("produce", 1.0);
            let _o = r0.for_loop(TripCount::fixed(16), false);
            let j0 = r0.for_loop(TripCount::fixed(256), true);
            let va = r0.load(a, AffineExpr::var(j0));
            let acc = r0.reduce(Opcode::Add, va, j0);
            r0.yield_value(acc);
            let r0i = k.finish_region(r0);
            let mut r1 = k.region("consume", 1.0);
            let _o1 = r1.for_loop(TripCount::fixed(16), false);
            let j1 = r1.for_loop(TripCount::fixed(256), true);
            let v = r1.consume(r0i, 0);
            let vb = r1.load(b, AffineExpr::var(j1));
            let p = r1.bin(Opcode::Mul, v, vb);
            r1.store(d, AffineExpr::var(j1), p);
            k.finish_region(r1);
            k.build().unwrap()
        };
        let adg = presets::softbrain();
        let (_, fwd, _) = run(
            &adg,
            &build(),
            &TransformConfig {
                forward: true,
                ..TransformConfig::fallback()
            },
        );
        let (_, barrier, _) = run(&adg, &build(), &TransformConfig::fallback());
        assert!(
            fwd.cycles < barrier.cycles,
            "forwarded {} vs barrier {}",
            fwd.cycles,
            barrier.cycles
        );
    }
}
