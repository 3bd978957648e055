//! Modular transformation configuration and version enumeration (§IV-E).
//!
//! Each hardware-dependent transformation is a *modular feature*: before
//! applying it the compiler checks that the ADG advertises the capability,
//! and a scalar fallback always exists so compilation never fails (§IV-C).
//! The version enumerator produces one [`TransformConfig`] per viable
//! combination; the scheduler and performance model then pick the best
//! *legal* version (§V step 2d).

use dsagen_adg::FeatureSet;
use serde::{Deserialize, Serialize};

use crate::{Kernel, LoopKind};

/// The set of transformations applied to one compiled kernel version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransformConfig {
    /// Vectorization degree of the innermost parallel loop (§IV-E
    /// "Resource Allocation": the degree is explored, since whether an
    /// efficient schedule exists at each degree is unknown a priori).
    pub unroll: u16,
    /// Use hardware stream-join for control-dependent memory access
    /// (§IV-E; requires dynamic-scheduled PEs with stream-join support).
    pub stream_join: bool,
    /// Encode `a[b[i]]` idioms as indirect streams (§IV-E; requires an
    /// indirect memory controller).
    pub indirect: bool,
    /// Vectorize in-place indirect updates through in-bank atomic-update
    /// units.
    pub atomic_update: bool,
    /// Apply the generic §IV-D optimizations: producer-consumer forwarding
    /// and repetitive in-place update buffering.
    pub forward: bool,
    /// Group constant-offset taps of one array into sliding-window vector
    /// ports (on by default; an ablation knob for the port-pressure design
    /// choice).
    pub window_ports: bool,
    /// Pack narrow (≤32-bit) data SIMD-style into decomposable FUs and
    /// switches (§III-A: "FUs that can be decomposed into smaller
    /// power-of-two functions"). Requires decomposable hardware.
    pub sub_word: bool,
}

impl TransformConfig {
    /// The guaranteed-fallback configuration: no unrolling, every
    /// hardware-dependent transformation disabled.
    #[must_use]
    pub fn fallback() -> Self {
        TransformConfig {
            unroll: 1,
            stream_join: false,
            indirect: false,
            atomic_update: false,
            forward: false,
            window_ports: true,
            sub_word: false,
        }
    }
}

impl Default for TransformConfig {
    fn default() -> Self {
        TransformConfig::fallback()
    }
}

/// Hardware requirements a compiled kernel version imposes; a version can
/// only be scheduled onto ADGs that satisfy them.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Requirements {
    /// Needs at least this many PEs with stream-join support.
    pub stream_join_pes: u32,
    /// Needs an indirect memory controller.
    pub indirect_memory: bool,
    /// Needs in-bank atomic update.
    pub atomic_update: bool,
    /// Needs at least this many PE instruction slots.
    pub instruction_slots: u32,
    /// Needs this union of opcodes somewhere in the fabric.
    pub ops: dsagen_adg::OpSet,
    /// Needs a programmable control core (the version executes scalar
    /// fallback work; an FSM sequencer cannot, §III-C).
    pub scalar_core: bool,
    /// Needs decomposable FUs/switches (sub-word SIMD packing).
    pub decomposable: bool,
}

impl Requirements {
    /// Whether `features` satisfies every requirement.
    #[must_use]
    pub fn satisfied_by(&self, features: &FeatureSet) -> bool {
        features.stream_join_pes >= self.stream_join_pes
            && (!self.indirect_memory || features.indirect_memory)
            && (!self.atomic_update || features.atomic_update)
            && features.total_instruction_slots >= self.instruction_slots
            && features.op_union.is_superset(self.ops)
            && (!self.scalar_core || features.programmable_control)
            && (!self.decomposable || features.decomposable)
    }
}

/// Which transformations could possibly pay off for a kernel, from source
/// analysis alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelIdioms {
    /// The kernel contains a merge-join loop.
    pub has_join: bool,
    /// The kernel contains indirect accesses.
    pub has_indirect: bool,
    /// The kernel contains indirect in-place updates.
    pub has_indirect_update: bool,
    /// The kernel has a parallel innermost loop (unrolling is meaningful).
    pub has_parallel_loop: bool,
    /// The kernel has producer-consumer or repetitive-update structure.
    pub has_forwarding: bool,
    /// Every array element is 32 bits or narrower (sub-word packing is
    /// meaningful).
    pub narrow_data: bool,
}

impl KernelIdioms {
    /// Analyzes a kernel's source form.
    #[must_use]
    pub fn analyze(kernel: &Kernel) -> Self {
        let mut idioms = KernelIdioms {
            narrow_data: !kernel.arrays.is_empty()
                && kernel.arrays.iter().all(|a| a.elem.bits() <= 32),
            ..KernelIdioms::default()
        };
        for region in &kernel.regions {
            idioms.has_join |= region.join_loop().is_some();
            idioms.has_indirect |= region.has_indirect_access();
            idioms.has_indirect_update |= region.stmts.iter().any(|s| {
                matches!(
                    s,
                    crate::SrcStmt::Update { index, .. } if index.is_indirect()
                )
            });
            idioms.has_parallel_loop |= region
                .loops
                .iter()
                .any(|l| l.parallel && matches!(l.kind, LoopKind::For { .. }));
            idioms.has_forwarding |= region
                .stmts
                .iter()
                .any(|s| matches!(s, crate::SrcStmt::Yield { .. }))
                || region.has_update();
        }
        idioms
    }
}

/// Enumerates candidate transformation configurations for a kernel on
/// hardware with `features`, most aggressive first. The scalar fallback is
/// always last, so the list is never empty and compilation always succeeds
/// (§IV-C "we ensure that there is always a fallback").
#[must_use]
pub fn enumerate_configs(
    kernel: &Kernel,
    features: &FeatureSet,
    max_unroll: u16,
) -> Vec<TransformConfig> {
    let idioms = KernelIdioms::analyze(kernel);
    let unrolls: Vec<u16> = {
        let mut u = 1u16;
        let mut v = Vec::new();
        while u <= max_unroll {
            v.push(u);
            u *= 2;
        }
        v.reverse(); // most aggressive first
        if !idioms.has_parallel_loop {
            v = vec![1];
        }
        v
    };

    let join_opts: &[bool] = if idioms.has_join && features.stream_join_pes > 0 {
        &[true, false]
    } else {
        &[false]
    };
    let indirect_opts: &[bool] = if idioms.has_indirect && features.indirect_memory {
        &[true, false]
    } else {
        &[false]
    };

    let sub_word_opts: &[bool] = if idioms.narrow_data && features.decomposable {
        &[true, false]
    } else {
        &[false]
    };

    let mut out = Vec::new();
    for &unroll in &unrolls {
        for &stream_join in join_opts {
            for &indirect in indirect_opts {
                for &sub_word in sub_word_opts {
                    let atomic_update =
                        indirect && idioms.has_indirect_update && features.atomic_update;
                    out.push(TransformConfig {
                        unroll,
                        stream_join,
                        indirect,
                        atomic_update,
                        forward: idioms.has_forwarding,
                        window_ports: true,
                        sub_word,
                    });
                }
            }
        }
    }
    let fallback = TransformConfig::fallback();
    if !out.contains(&fallback) {
        out.push(fallback);
    }
    out
}

#[cfg(test)]
mod tests {
    use dsagen_adg::{presets, BitWidth, Opcode};

    use super::*;
    use crate::{AffineExpr, JoinSide, KernelBuilder, MemClass, TripCount};

    fn dense_kernel() -> Kernel {
        let mut k = KernelBuilder::new("dense");
        let a = k.array("a", BitWidth::B64, 64, MemClass::MainMemory);
        let mut r = k.region("body", 1.0);
        let i = r.for_loop(TripCount::fixed(64), true);
        let v = r.load(a, AffineExpr::var(i));
        let w = r.bin(Opcode::Add, v, v);
        r.store(a, AffineExpr::var(i), w);
        k.finish_region(r);
        k.build().unwrap()
    }

    fn join_kernel() -> Kernel {
        let mut k = KernelBuilder::new("join");
        let k0 = k.array("k0", BitWidth::B64, 768, MemClass::MainMemory);
        let k1 = k.array("k1", BitWidth::B64, 768, MemClass::MainMemory);
        let out = k.array("out", BitWidth::B64, 1, MemClass::MainMemory);
        let mut r = k.region("j", 1.0);
        let j = r.join_loop(
            JoinSide {
                key: k0,
                payloads: vec![],
                len: 768,
            },
            JoinSide {
                key: k1,
                payloads: vec![],
                len: 768,
            },
            0.3,
        );
        let a = r.load(k0, AffineExpr::var(j));
        let b = r.load(k1, AffineExpr::var(j));
        let p = r.bin(Opcode::Mul, a, b);
        let acc = r.reduce(Opcode::Add, p, j);
        r.store(out, AffineExpr::constant(0), acc);
        k.finish_region(r);
        k.build().unwrap()
    }

    #[test]
    fn dense_kernel_gets_unroll_sweep_only() {
        let feats = presets::softbrain().features();
        let configs = enumerate_configs(&dense_kernel(), &feats, 8);
        assert!(configs.iter().all(|c| !c.stream_join && !c.indirect));
        let unrolls: Vec<u16> = configs.iter().map(|c| c.unroll).collect();
        assert_eq!(unrolls, vec![8, 4, 2, 1]);
    }

    #[test]
    fn join_kernel_on_spu_gets_stream_join_variants() {
        let feats = presets::spu().features();
        let configs = enumerate_configs(&join_kernel(), &feats, 4);
        assert!(configs.iter().any(|c| c.stream_join));
        assert!(configs.iter().any(|c| !c.stream_join));
    }

    #[test]
    fn join_kernel_on_softbrain_has_no_stream_join() {
        let feats = presets::softbrain().features();
        let configs = enumerate_configs(&join_kernel(), &feats, 4);
        assert!(configs.iter().all(|c| !c.stream_join));
        // The fallback is always present.
        assert!(configs.contains(&TransformConfig::fallback()));
    }

    #[test]
    fn fallback_always_present() {
        for adg in [presets::softbrain(), presets::spu(), presets::triggered()] {
            let feats = adg.features();
            for kernel in [dense_kernel(), join_kernel()] {
                let configs = enumerate_configs(&kernel, &feats, 8);
                assert!(
                    configs.contains(&TransformConfig::fallback()),
                    "{} on {}",
                    kernel.name,
                    adg.name()
                );
            }
        }
    }

    #[test]
    fn requirements_gate_on_features() {
        let mut req = Requirements {
            indirect_memory: true,
            ..Requirements::default()
        };
        assert!(!req.satisfied_by(&presets::softbrain().features()));
        assert!(req.satisfied_by(&presets::spu().features()));
        req.stream_join_pes = 1;
        assert!(req.satisfied_by(&presets::spu().features()));
        req.stream_join_pes = 10_000;
        assert!(!req.satisfied_by(&presets::spu().features()));
    }

    #[test]
    fn idiom_analysis() {
        let i = KernelIdioms::analyze(&join_kernel());
        assert!(i.has_join);
        assert!(!i.has_indirect);
        let d = KernelIdioms::analyze(&dense_kernel());
        assert!(!d.has_join);
        assert!(d.has_parallel_loop);
    }
}
