//! Shared harness for the experiment binaries that regenerate the paper's
//! tables and figures (see DESIGN.md §3 for the experiment index).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod artifact;
pub mod envelope;
pub mod figures;
pub mod json;

use dsagen::{compile, CompileOptions, Compiled};
use dsagen_adg::Adg;
use dsagen_dfg::{CompiledKernel, Kernel, StreamSource};
use dsagen_scheduler::{schedule, SchedulerConfig, Start};
use dsagen_sim::{simulate, SimConfig, SimReport};
use dsagen_telemetry::Telemetry;

/// Standard options used by the experiment harness: the paper's 200
/// scheduling iterations, vectorization up to 8.
#[must_use]
pub fn harness_opts() -> CompileOptions {
    CompileOptions {
        max_unroll: 8,
        scheduler: SchedulerConfig {
            max_iters: 200,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    }
}

/// Compiles and simulates one kernel; panics with a diagnostic on failure
/// (experiment binaries want loud failures).
#[must_use]
pub fn run_workload(adg: &Adg, kernel: &Kernel) -> (Compiled, SimReport) {
    let compiled = compile(adg, kernel, &harness_opts())
        .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, adg.name()));
    let report = simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{} on {}: {e}", kernel.name, adg.name()));
    (compiled, report)
}

/// Derives the *manually-tuned* variant of a compiled kernel (Fig 10's
/// baseline): expert assembly "exploits features of the low-level ISA to
/// reduce the number of control instructions" (§VIII-A) and, for fft-like
/// small-stride scratchpad patterns, peels iterations to coalesce requests.
#[must_use]
pub fn manual_tune(version: &CompiledKernel) -> CompiledKernel {
    let mut tuned = version.clone();
    for region in &mut tuned.regions {
        // Peephole control-instruction elision.
        region.ctrl_ops *= 0.7;
        for s in region
            .in_streams
            .iter_mut()
            .chain(region.out_streams.iter_mut())
        {
            // Hand-fused stream commands (volume-preserving).
            let total = s.pattern.total_elems();
            s.pattern.commands = ((s.pattern.commands * 3) / 4).max(1);
            s.pattern.elems_per_command = total / s.pattern.commands as f64;
            // Peeling + request combining for small non-unit strides on
            // scratchpad (the fft trick): the tuned code re-reads lines
            // once instead of per element.
            let small_stride = s.pattern.stride_bytes != 0
                && s.pattern.stride_bytes.unsigned_abs() as u32 != s.elem_bytes
                && s.pattern.stride_bytes.unsigned_abs() <= 4 * u64::from(s.elem_bytes);
            if small_stride && matches!(s.source, StreamSource::Memory(_)) {
                s.pattern.stride_bytes = i64::from(s.elem_bytes);
            }
        }
    }
    tuned
}

/// Simulates the manually-tuned variant of `compiled` on `adg`.
///
/// The tuned kernel has the same dataflow shape, so the compiled schedule
/// remains valid for it; the expert additionally gets a fresh scheduling
/// attempt, and the better of the two counts (hand mappings never lose to
/// the compiler's own placement).
#[must_use]
pub fn run_manual(adg: &Adg, compiled: &Compiled) -> SimReport {
    let tuned = manual_tune(&compiled.version);
    let reuse = simulate(
        adg,
        &tuned,
        &compiled.schedule,
        &compiled.eval,
        0,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("manual-tune reuse on {}: {e}", adg.name()));
    let fresh_sched = schedule(
        adg,
        &tuned,
        &Start::Empty,
        &harness_opts().scheduler,
        &Telemetry::disabled(),
    )
    .expect("an empty start pins nothing");
    let fresh = simulate(
        adg,
        &tuned,
        &fresh_sched.schedule,
        &fresh_sched.eval,
        0,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("manual-tune fresh on {}: {e}", adg.name()));
    // The expert starts from the compiler's output, so hand tuning is never
    // a regression: keep the untouched compiled version as a floor.
    let untouched = simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        0,
        &SimConfig::default(),
    )
    .unwrap_or_else(|e| panic!("untouched baseline on {}: {e}", adg.name()));
    let mut best = reuse;
    if fresh_sched.is_legal() && fresh.cycles < best.cycles {
        best = fresh;
    }
    if untouched.cycles < best.cycles {
        best = untouched;
    }
    best
}

/// Geometric mean of a nonempty slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The accelerator↔suite pairing the paper evaluates (Fig 10: each
/// accelerator runs the workloads it was designed for).
#[must_use]
pub fn fig10_pairs() -> Vec<(&'static str, Adg, Vec<dsagen_workloads::Workload>)> {
    use dsagen_adg::presets;
    use dsagen_workloads::{suite, Suite};
    vec![
        ("Softbrain", presets::softbrain(), suite(Suite::MachSuite)),
        ("MAERI", presets::maeri(), suite(Suite::DenseNN)),
        ("TriggeredInsts", presets::triggered(), suite(Suite::Sparse)),
        ("SPU", presets::spu(), suite(Suite::Sparse)),
        ("REVEL", presets::revel(), suite(Suite::Dsp)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn manual_tuning_reduces_control_work() {
        let adg = dsagen_adg::presets::softbrain();
        let kernel = dsagen_workloads::machsuite::stencil3d();
        let feats = adg.features();
        let ck =
            dsagen_dfg::compile_kernel(&kernel, &dsagen_dfg::TransformConfig::fallback(), &feats)
                .unwrap();
        let tuned = manual_tune(&ck);
        let orig_cmds: u64 = ck.regions.iter().map(|r| r.stream_commands()).sum();
        let tuned_cmds: u64 = tuned.regions.iter().map(|r| r.stream_commands()).sum();
        assert!(tuned_cmds < orig_cmds);
        // Volume is conserved.
        for (a, b) in ck.regions.iter().zip(&tuned.regions) {
            for (sa, sb) in a.in_streams.iter().zip(&b.in_streams) {
                assert!((sa.pattern.total_elems() - sb.pattern.total_elems()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fig10_pairs_cover_five_accelerators() {
        let pairs = fig10_pairs();
        assert_eq!(pairs.len(), 5);
        for (_, adg, workloads) in &pairs {
            assert!(adg.validate().is_ok());
            assert!(!workloads.is_empty());
        }
    }
}
