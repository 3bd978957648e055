//! `compile-cold`: every Table-I kernel onto three preset fabrics, each
//! from scratch. One op is compile → generate → verify → frame/deframe →
//! functional simulation of one (kernel, fabric) pair under a fresh
//! scheduler seed. Nothing is remembered between ops, so the path is the
//! from-scratch scheduler almost alone.

use std::collections::BTreeMap;
use std::time::Instant;

use dsagen::adg::{presets, Adg};
use dsagen::dfg::{compile_kernel, enumerate_configs, interp, Kernel};
use dsagen::hwgen::{
    deframe_words, emit_verilog, frame_words, generate_config_paths, schedule_digest,
    verify_round_trip_timed, Bitstream,
};
use dsagen::model::{objective, AreaPowerModel, PerfModel};
use dsagen::scheduler::{schedule_instrumented, Problem, SchedulerConfig};
use dsagen::sim::{simulate_functional, SimConfig};
use dsagen::{CompileError, CompileOptions, Compiled, Hardware};
use dsagen_bench::geomean;

use crate::harness::{Ctx, Fixture, Measured};
use crate::inputs::{kernel_inputs, sub_seed, Digest, REFERENCE_TRAPS};

/// Pairs that cannot map: the fabric lacks a unit the kernel needs.
const UNMAPPABLE: [(&str, &str); 3] = [("spu", "md"), ("spu", "stencil-2d"), ("spu", "nn-conv")];

/// Enumerating wider versions multiplies the time of a few pairs by ten
/// and leaves room for one pass per run; at 1 a pass takes ~3 s, so a run
/// holds several passes under independent seeds and its total is steady.
const MAX_UNROLL: u16 = 1;

type Arrays = BTreeMap<String, Vec<f64>>;

struct Setup {
    fabrics: Vec<(Adg, f64)>,
    kernels: Vec<Kernel>,
    inputs: Vec<Arrays>,
    /// Outputs of the reference interpreter, independent of the compiler.
    reference: Vec<Arrays>,
    pairs: Vec<(usize, usize)>,
}

fn setup(ctx: &Ctx) -> Setup {
    let area = AreaPowerModel::default();
    let fabrics: Vec<(Adg, f64)> = [presets::softbrain(), presets::spu(), presets::dse_initial()]
        .into_iter()
        .map(|adg| {
            let mm2 = area.estimate_adg(&adg).area_mm2;
            (adg, mm2)
        })
        .collect();
    let kernels: Vec<Kernel> = dsagen::workloads::all()
        .into_iter()
        .map(|w| w.kernel)
        .filter(|k| k.name != REFERENCE_TRAPS)
        .collect();
    let inputs: Vec<Arrays> = kernels.iter().map(|k| kernel_inputs(k, ctx.seed)).collect();
    let reference = kernels
        .iter()
        .zip(&inputs)
        .map(|(k, i)| {
            let _span = ctx.span("dfg.interp");
            interp::execute(k, i).expect("generated inputs are valid for every kernel")
        })
        .collect();
    let pairs = (0..fabrics.len())
        .flat_map(|f| (0..kernels.len()).map(move |k| (f, k)))
        .filter(|&(f, k)| !UNMAPPABLE.contains(&(fabrics[f].0.name(), kernels[k].name.as_str())))
        .collect();
    Setup {
        fabrics,
        kernels,
        inputs,
        reference,
        pairs,
    }
}

/// What `dsagen::compile` does, one layer call at a time, each under its
/// own span. The untraced run calls `dsagen::compile` itself; the digests
/// of the two must agree.
fn compile_layered(
    ctx: &Ctx,
    adg: &Adg,
    kernel: &Kernel,
    opts: &CompileOptions,
    reseeds: &mut u64,
    illegal: &mut u64,
) -> Result<Compiled, CompileError> {
    let _compile = ctx.span("core.compile");
    kernel.validate()?;
    let features = {
        let _s = ctx.span("adg.features");
        adg.features()
    };
    let config_path_len = {
        let _s = ctx.span("hwgen.config_paths");
        generate_config_paths(adg, opts.config_paths, opts.scheduler.seed).longest() as u32
    };
    let perf_model = PerfModel::default();
    let configs = {
        let _s = ctx.span("dfg.enumerate_configs");
        enumerate_configs(kernel, &features, opts.max_unroll)
    };
    let mut best: Option<Compiled> = None;
    let mut tried = 0usize;
    for config in configs {
        let version = {
            let _s = ctx.span("dfg.compile_kernel");
            compile_kernel(kernel, &config, &features)?
        };
        if !version.requires.satisfied_by(&features) {
            continue;
        }
        tried += 1;
        let mut result = {
            let _s = ctx.span("scheduler.schedule");
            schedule_instrumented(adg, &version, &opts.scheduler, &ctx.tel)
        };
        for retry in 1..3u64 {
            if result.is_legal() {
                break;
            }
            *reseeds += 1;
            let reseeded = SchedulerConfig {
                seed: opts.scheduler.seed.wrapping_add(retry * 0x9E37_79B9),
                ..opts.scheduler
            };
            let _s = ctx.span("scheduler.schedule");
            result = schedule_instrumented(adg, &version, &reseeded, &ctx.tel);
        }
        if !result.is_legal() {
            *illegal += 1;
            continue;
        }
        let perf = {
            let _s = ctx.span("model.perf_estimate");
            perf_model.estimate(
                adg,
                &version,
                &result.schedule,
                &result.eval,
                config_path_len,
            )
        };
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

/// `dsagen::generate`, one layer call at a time.
fn generate_layered(
    ctx: &Ctx,
    adg: &Adg,
    compiled: &Compiled,
    paths: usize,
    seed: u64,
) -> Hardware {
    let _generate = ctx.span("core.generate");
    let problem = {
        let _s = ctx.span("scheduler.problem_new");
        Problem::new(adg, &compiled.version)
    };
    Hardware {
        bitstream: {
            let _s = ctx.span("hwgen.encode");
            Bitstream::encode_with_timing(&problem, &compiled.schedule, &compiled.eval)
        },
        config_paths: {
            let _s = ctx.span("hwgen.config_paths");
            generate_config_paths(adg, paths, seed)
        },
        verilog: {
            let _s = ctx.span("hwgen.rtl");
            emit_verilog(adg)
        },
    }
}

#[derive(Default)]
struct Tally {
    objectives: Vec<f64>,
    versions: u64,
    insts: u64,
    words: u64,
    reseeds: u64,
    illegal: u64,
    digest: Digest,
}

/// One op. `Err` is a failed op: a `CompileError`, an illegal schedule, a
/// `VerifyError`, a framing error, a `CoSimError`, or a wrong output.
fn op(
    ctx: &Ctx,
    s: &Setup,
    pair: (usize, usize),
    sched_seed: u64,
    t: &mut Tally,
) -> Result<(Compiled, u64), String> {
    let (adg, area_mm2) = &s.fabrics[pair.0];
    let kernel = &s.kernels[pair.1];
    let opts = CompileOptions {
        max_unroll: MAX_UNROLL,
        scheduler: SchedulerConfig {
            seed: sched_seed,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    };
    let traced = ctx.tel.is_enabled();
    let compiled = if traced {
        compile_layered(ctx, adg, kernel, &opts, &mut t.reseeds, &mut t.illegal)
    } else {
        dsagen::compile(adg, kernel, &opts)
    }
    .map_err(|e| e.to_string())?;
    if !compiled.eval.feasible {
        return Err("compile returned an illegal schedule".into());
    }
    let hw = if traced {
        generate_layered(ctx, adg, &compiled, opts.config_paths, sched_seed)
    } else {
        dsagen::generate(adg, &compiled, opts.config_paths, sched_seed)
    };
    let verified = {
        let _s = ctx.span("hwgen.verify");
        let problem = Problem::new(adg, &compiled.version);
        verify_round_trip_timed(&problem, &compiled.schedule, &compiled.eval)
            .map_err(|e| e.to_string())?
    };
    if hw.bitstream.to_words() != verified.words() || !verified.matches(&compiled.schedule) {
        return Err("generated bitstream differs from the verified configuration".into());
    }
    {
        let _s = ctx.span("hwgen.frame");
        let framed = frame_words(verified.words());
        let back = deframe_words(&framed, verified.word_count()).map_err(|e| e.to_string())?;
        if back != verified.words() {
            return Err("deframed words differ from the framed ones".into());
        }
    }
    let report = {
        let _s = ctx.span("sim.functional");
        simulate_functional(
            adg,
            kernel,
            &compiled.version,
            &compiled.schedule,
            &compiled.eval,
            compiled.config_path_len,
            &SimConfig::default(),
            &s.inputs[pair.1],
        )
        .map_err(|e| e.to_string())?
    };
    for (ri, region) in compiled.version.regions.iter().enumerate() {
        let fired = report.timing.firings.get(ri).copied().unwrap_or(0);
        if (fired as f64 - region.instances).abs() > 0.5 {
            return Err(format!(
                "region {ri} fired {fired} of {} instances",
                region.instances
            ));
        }
    }
    if !bitwise_equal(&report.outputs, &s.reference[pair.1]) {
        return Err("outputs differ from the reference interpreter".into());
    }

    t.objectives
        .push(objective(compiled.perf.perf(), *area_mm2));
    t.versions += compiled.candidates_tried as u64;
    t.insts += compiled.version.inst_count() as u64;
    t.words += verified.word_count() as u64;
    t.digest.push(schedule_digest(&compiled.schedule));
    t.digest.push(report.timing.cycles);
    Ok((compiled, report.timing.cycles))
}

fn bitwise_equal(got: &Arrays, want: &Arrays) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|((gn, g), (wn, w))| {
            gn == wn
                && g.len() == w.len()
                && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// `passes` passes over every mappable pair.
pub fn run(ctx: &Ctx, passes: u64) -> Measured {
    let mut out = Measured::default();
    let (s, setup_s) = ctx.setup(|_| setup(ctx));
    out.setup_s = setup_s;

    let mut tally = Tally::default();
    let mut keep: Vec<(usize, usize, Compiled)> = Vec::new();
    let started = Instant::now();
    {
        let _timed = ctx.span("timed");
        for pass in 0..passes {
            for (at, &pair) in s.pairs.iter().enumerate() {
                let sched_seed = sub_seed(ctx.seed, "compile-cold.sched", pass * 4096 + at as u64);
                out.attempted += 1;
                let op_started = Instant::now();
                match op(ctx, &s, pair, sched_seed, &mut tally) {
                    Ok((compiled, cycles)) => {
                        out.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
                        out.sim_cycles += cycles;
                        // A few mappings for the probes: small, large, each fabric.
                        if pass == 0 && at % 16 == 3 {
                            keep.push((pair.0, pair.1, compiled));
                        }
                    }
                    Err(why) => out.fail_op(format!(
                        "{} on {} (seed {sched_seed:#x}): {why}",
                        s.kernels[pair.1].name,
                        s.fabrics[pair.0].0.name()
                    )),
                }
            }
        }
    }
    out.timed_s = started.elapsed().as_secs_f64();

    out.best_objective = geomean(&tally.objectives);
    out.digest = tally.digest.0;
    out.layer.insert("dfg.versions", tally.versions as f64);
    out.layer.insert("dfg.insts", tally.insts as f64);
    out.layer.insert("hwgen.words", tally.words as f64);
    out.layer.insert("scheduler.reseeds", tally.reseeds as f64);
    if tally.versions > 0 {
        let legal = tally.versions - tally.illegal;
        out.layer.insert(
            "scheduler.legal_share",
            legal as f64 / tally.versions as f64,
        );
    }
    out.fixtures = keep
        .into_iter()
        .map(|(f, k, compiled)| Fixture {
            adg: s.fabrics[f].0.clone(),
            kernel: s.kernels[k].clone(),
            compiled,
        })
        .collect();
    out
}
