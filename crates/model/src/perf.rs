//! The analytical performance model (§V-B).
//!
//! `IPC = #Insts × ActivityRatio`, where the activity ratio is limited
//! either by memory bandwidth or by dependences. The memory activity ratio
//! is the minimum over memories of bandwidth-supplied / bandwidth-requested;
//! the dependence ratio divides the chains that can hide a dependence by
//! its schedule-derived latency.

use std::collections::{BTreeMap, HashMap};

use dsagen_adg::{Adg, CtrlSpec, NodeId, NodeKind};
use dsagen_dfg::{CompiledKernel, CompiledRegion, Stream, StreamDir, StreamSource};
use dsagen_scheduler::{Evaluation, Problem, Schedule};

/// Tunables for the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModel {
    /// Clock frequency in GHz (the paper targets 1 GHz, §VII).
    pub clock_ghz: f64,
    /// Pipeline-fill cycles charged once per region execution.
    pub startup_cycles: f64,
    /// Barrier/fence cost between non-pipelined regions.
    pub barrier_cycles: f64,
    /// Cycles to load one configuration word (multiplied by the config-path
    /// length supplied per estimate).
    pub config_word_cycles: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            clock_ghz: 1.0,
            startup_cycles: 24.0,
            barrier_cycles: 64.0,
            config_word_cycles: 1.0,
        }
    }
}

/// Per-region performance breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionPerf {
    /// Total cycles for the region's whole execution.
    pub cycles: f64,
    /// Compute-limited cycles (`instances × effective II`).
    pub compute_cycles: f64,
    /// The binding memory's cycles.
    pub memory_cycles: f64,
    /// Recurrence-limited cycles.
    pub recurrence_cycles: f64,
    /// Control-core cycles (scalar fallbacks + stream commands).
    pub ctrl_cycles: f64,
    /// Activity ratio actually achieved (≤ 1).
    pub activity: f64,
}

/// A kernel-level performance estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfEstimate {
    /// Total cycles including barriers and configuration.
    pub cycles: f64,
    /// Per-region breakdown.
    pub regions: Vec<RegionPerf>,
    /// Aggregate instructions-per-cycle across the kernel.
    pub ipc: f64,
}

impl PerfEstimate {
    /// Throughput figure used in the DSE objective: instructions per cycle.
    #[must_use]
    pub fn perf(&self) -> f64 {
        self.ipc.max(1e-9)
    }
}

impl PerfModel {
    /// Estimates one scheduled kernel version on `adg`.
    ///
    /// `config_path_len` is the longest configuration path of the hardware
    /// (0 if unknown); it charges the §VI configuration time once.
    #[must_use]
    pub fn estimate(
        &self,
        adg: &Adg,
        kernel: &CompiledKernel,
        schedule: &Schedule,
        eval: &Evaluation,
        config_path_len: u32,
    ) -> PerfEstimate {
        let problem = Problem::new(adg, kernel);
        let stream_mems = schedule.stream_memories(&problem);
        let ctrl = control_spec(adg);

        let mut regions = Vec::with_capacity(kernel.regions.len());
        for (ri, region) in kernel.regions.iter().enumerate() {
            let reval = eval.regions.get(ri);
            let perf = self.region_perf(adg, region, ri, reval, &stream_mems, &ctrl);
            regions.push(perf);
        }

        // Pipelined neighbours overlap; barriers separate the rest.
        let mut cycles = self.config_word_cycles * f64::from(config_path_len);
        let mut i = 0;
        while i < kernel.regions.len() {
            let mut group_max = regions[i].cycles;
            let mut j = i;
            while j + 1 < kernel.regions.len() && kernel.regions[j].pipelined_with_next {
                j += 1;
                group_max = group_max.max(regions[j].cycles);
            }
            cycles += group_max + self.startup_cycles;
            if j + 1 < kernel.regions.len() {
                cycles += self.barrier_cycles;
            }
            i = j + 1;
        }

        let total_insts: f64 = kernel
            .regions
            .iter()
            .map(|r| r.dfg.inst_count() as f64 * r.instances)
            .sum();
        let ipc = if cycles > 0.0 {
            total_insts / cycles
        } else {
            0.0
        };
        PerfEstimate {
            cycles,
            regions,
            ipc,
        }
    }

    fn region_perf(
        &self,
        adg: &Adg,
        region: &CompiledRegion,
        ri: usize,
        reval: Option<&dsagen_scheduler::RegionEval>,
        stream_mems: &BTreeMap<(usize, bool, usize), NodeId>,
        ctrl: &CtrlSpec,
    ) -> RegionPerf {
        let instances = region.instances.max(1.0);

        // 1. Compute limit: effective initiation interval (multiplexing +
        //    unabsorbed operand mismatch, §III-B).
        let (max_ii, mismatch, rec_lats) = match reval {
            Some(r) => (r.max_ii, r.mismatch_excess, r.recurrence_latencies.clone()),
            None => (
                1.0,
                0.0,
                region
                    .dfg
                    .recurrences()
                    .iter()
                    .map(|r| match region.dfg.op(r.through) {
                        dsagen_dfg::DfgOp::Accum { op, .. } => f64::from(op.latency()),
                        _ => 24.0,
                    })
                    .collect(),
            ),
        };
        let ii_eff = max_ii.max(1.0) + mismatch;
        let compute_cycles = instances * ii_eff;

        // 2. Memory limit: per memory, total request cycles.
        let mut mem_cycles: HashMap<NodeId, f64> = HashMap::new();
        for (is_input, s) in region
            .in_streams
            .iter()
            .map(|s| (true, s))
            .chain(region.out_streams.iter().map(|s| (false, s)))
        {
            if !matches!(s.source, StreamSource::Memory(_)) {
                continue;
            }
            let Some(mem) = stream_mems.get(&(ri, is_input, s.port)) else {
                continue;
            };
            let Ok(NodeKind::Memory(spec)) = adg.kind(*mem) else {
                continue;
            };
            *mem_cycles.entry(*mem).or_insert(0.0) += stream_cycles(s, spec);
        }
        let memory_cycles = mem_cycles.values().copied().fold(0.0, f64::max);

        // 3. Dependence limit: each recurrence forces `latency / chains`
        //    cycles per instance flowing through it (§V-B).
        let recurrence_cycles = region
            .dfg
            .recurrences()
            .iter()
            .zip(rec_lats.iter().chain(std::iter::repeat(&1.0)))
            .map(|(rec, lat)| instances * lat / rec.independent_chains.max(1.0))
            .fold(0.0, f64::max);

        // 4. Control-core limit: scalar fallbacks and stream commands.
        let ctrl_cycles = region.ctrl_ops * f64::from(ctrl.scalar_op_cycles)
            + region.stream_commands() as f64 * f64::from(ctrl.command_issue_cycles);

        let cycles = compute_cycles
            .max(memory_cycles)
            .max(recurrence_cycles)
            .max(ctrl_cycles)
            * region.exec_freq.max(1e-9);
        let activity = (instances / cycles.max(1e-9)).min(1.0);
        RegionPerf {
            cycles,
            compute_cycles,
            memory_cycles,
            recurrence_cycles,
            ctrl_cycles,
            activity,
        }
    }
}

/// Request cycles a stream costs its memory: linear streams coalesce into
/// line requests served one per cycle; indirect streams pay one request per
/// element, served in parallel across banks (SPU-style banking, §III-A).
fn stream_cycles(s: &Stream, spec: &dsagen_adg::MemSpec) -> f64 {
    let line = spec.width_bytes.max(1);
    if s.pattern.indirect || s.dir == StreamDir::AtomicUpdate {
        s.pattern.total_elems() / f64::from(spec.banks.max(1))
    } else if spec.controllers.coalescing && s.pattern.stride_bytes != 0 {
        // Coalescing controller (§III-C extension): strided requests to
        // the same line merge, so only distinct lines are fetched.
        (s.pattern.total_elems() * f64::from(s.elem_bytes) / f64::from(line)).ceil()
    } else {
        s.pattern.line_requests_lanes(line, s.elem_bytes, s.lanes)
    }
}

fn control_spec(adg: &Adg) -> CtrlSpec {
    adg.control()
        .and_then(|c| match adg.kind(c) {
            Ok(NodeKind::Control(spec)) => Some(*spec),
            _ => None,
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};
    use dsagen_dfg::{
        compile_kernel, AffineExpr, KernelBuilder, MemClass, TransformConfig, TripCount,
    };
    use dsagen_scheduler::{schedule, ScheduleResult, SchedulerConfig, Start};
    use dsagen_telemetry::Telemetry;

    use super::*;

    /// `ck` scheduled onto `adg` from scratch, untraced.
    fn fresh(adg: &Adg, ck: &CompiledKernel, cfg: &SchedulerConfig) -> ScheduleResult {
        schedule(adg, ck, &Start::Empty, cfg, &Telemetry::disabled()).expect("nothing is pinned")
    }

    fn scheduled_dot(unroll: u16) -> (Adg, CompiledKernel, Schedule, Evaluation) {
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("dot");
        let a = k.array("a", BitWidth::B64, 4096, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 4096, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(4096), true);
        let va = r.load(a, AffineExpr::var(i));
        let vb = r.load(b, AffineExpr::var(i));
        let p = r.bin(Opcode::Mul, va, vb);
        let acc = r.reduce(Opcode::Add, p, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(
            &kernel,
            &TransformConfig {
                unroll,
                ..TransformConfig::fallback()
            },
            &adg.features(),
        )
        .unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        assert!(result.is_legal());
        (adg, ck, result.schedule, result.eval)
    }

    #[test]
    fn dot_cycles_near_instances() {
        let (adg, ck, s, ev) = scheduled_dot(1);
        let est = PerfModel::default().estimate(&adg, &ck, &s, &ev, 0);
        // One instance per cycle plus startup ⇒ about 4096 cycles.
        assert!(est.cycles >= 4096.0);
        assert!(est.cycles < 4096.0 * 2.0, "cycles {}", est.cycles);
        assert!(est.ipc > 1.0);
    }

    #[test]
    fn unrolling_improves_dot() {
        let (adg1, ck1, s1, ev1) = scheduled_dot(1);
        let (adg4, ck4, s4, ev4) = scheduled_dot(4);
        let m = PerfModel::default();
        let e1 = m.estimate(&adg1, &ck1, &s1, &ev1, 0);
        let e4 = m.estimate(&adg4, &ck4, &s4, &ev4, 0);
        assert!(
            e4.cycles < e1.cycles / 2.0,
            "unroll-4 {} vs scalar {}",
            e4.cycles,
            e1.cycles
        );
    }

    #[test]
    fn fp_recurrence_limits_scalar_dot() {
        // FAdd accumulation has a 3-cycle recurrence; the scalar version is
        // recurrence-bound.
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("fdot");
        let a = k.array("a", BitWidth::B64, 1024, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(1024), true);
        let va = r.load(a, AffineExpr::var(i));
        let acc = r.reduce(Opcode::FAdd, va, i);
        r.store(c, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        let est = PerfModel::default().estimate(&adg, &ck, &result.schedule, &result.eval, 0);
        assert!(est.regions[0].recurrence_cycles >= 3.0 * 1024.0);
        assert!(est.cycles >= 3.0 * 1024.0);
    }

    #[test]
    fn scalar_fallback_is_ctrl_bound() {
        // Indirect gather without indirect hardware: control core does the
        // work, and the model must show it.
        let adg = presets::softbrain();
        let mut k = KernelBuilder::new("gather");
        let a = k.array("a", BitWidth::B64, 4096, MemClass::MainMemory);
        let b = k.array("b", BitWidth::B64, 1024, MemClass::MainMemory);
        let s = k.array("s", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(1024), true);
        let v = r.load_indirect(a, b, AffineExpr::var(i));
        let acc = r.reduce(Opcode::Add, v, i);
        r.store(s, AffineExpr::constant(0), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        let est = PerfModel::default().estimate(&adg, &ck, &result.schedule, &result.eval, 0);
        assert!(est.regions[0].ctrl_cycles >= 4.0 * 1024.0);
        assert_eq!(
            est.regions[0].cycles.max(est.regions[0].ctrl_cycles),
            est.regions[0].cycles
        );
    }

    #[test]
    fn config_path_length_adds_cycles() {
        let (adg, ck, s, ev) = scheduled_dot(1);
        let m = PerfModel::default();
        let short = m.estimate(&adg, &ck, &s, &ev, 0);
        let long = m.estimate(&adg, &ck, &s, &ev, 500);
        assert!(long.cycles > short.cycles + 400.0);
    }

    #[test]
    fn strided_stream_is_memory_bound() {
        // Column-major traversal: stride n elements → per-element requests.
        let adg = presets::softbrain();
        let n = 64u64;
        let mut k = KernelBuilder::new("colsum");
        let a = k.array("a", BitWidth::B64, n * n, MemClass::MainMemory);
        let c = k.array("c", BitWidth::B64, n, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(n), true);
        let j = r.for_loop(TripCount::fixed(n), false);
        // a[j*n + i] — innermost j strides by n.
        let v = r.load(
            a,
            AffineExpr::var(j)
                .scaled(n as i64)
                .plus(&AffineExpr::var(i)),
        );
        let acc = r.reduce(Opcode::Add, v, j);
        r.store(c, AffineExpr::var(i), acc);
        k.finish_region(r);
        let kernel = k.build().unwrap();
        let ck = compile_kernel(&kernel, &TransformConfig::fallback(), &adg.features()).unwrap();
        let result = fresh(&adg, &ck, &SchedulerConfig::default());
        let est = PerfModel::default().estimate(&adg, &ck, &result.schedule, &result.eval, 0);
        // 4096 elements, one line request each → ≥ 4096 memory cycles.
        assert!(est.regions[0].memory_cycles >= 4096.0);
    }
}
