//! `fabric-runtime`: what runs after the design is chosen. Set-up compiles
//! every kernel that maps onto `spu` and `softbrain`; a round then runs
//! each fixture fault-free four times, once under a transient dead PE
//! (checkpoint, rollback, resume) and once under a permanent fault of a
//! drawn kind (the degradation ladder: scoped mask repair, verified
//! reprogramming, or a typed degraded finish). One op is one simulated run.
//! The scheduler is entered through the scoped mask repair only; explorer
//! cache, store and service are not on this path.

use std::time::Instant;

use dsagen::adg::{presets, Adg};
use dsagen::dfg::Kernel;
use dsagen::model::{objective, AreaPowerModel};
use dsagen::scheduler::SchedulerConfig;
use dsagen::sim::{
    simulate, simulate_instrumented, RecoveryOutcome, RecoveryPolicy, RecoveryReport, SimConfig,
};
use dsagen::{CompileOptions, Compiled};
use dsagen_bench::geomean;

use crate::harness::{Ctx, Fixture, Measured};
use crate::inputs::{fault_schedules, sub_seed, Digest};

const FAULT_FREE_RUNS: usize = 4;

struct Mapped {
    adg: usize,
    kernel: Kernel,
    compiled: Compiled,
    /// Fault-free cycles and firings: what every recovered run is held to.
    cycles: u64,
    firings: Vec<u64>,
}

struct Setup {
    fabrics: Vec<(Adg, f64)>,
    mapped: Vec<Mapped>,
    unmapped: Vec<String>,
}

fn setup(ctx: &Ctx) -> Setup {
    let area = AreaPowerModel::default();
    let fabrics: Vec<(Adg, f64)> = [presets::spu(), presets::softbrain()]
        .into_iter()
        .map(|adg| {
            let mm2 = area.estimate_adg(&adg).area_mm2;
            (adg, mm2)
        })
        .collect();
    let (mut mapped, mut unmapped) = (Vec::new(), Vec::new());
    for (fi, (adg, _)) in fabrics.iter().enumerate() {
        for (ki, w) in dsagen::workloads::all().into_iter().enumerate() {
            let opts = CompileOptions {
                max_unroll: 1,
                scheduler: SchedulerConfig {
                    seed: sub_seed(ctx.seed, "fabric.compile", (fi * 64 + ki) as u64),
                    ..SchedulerConfig::default()
                },
                ..CompileOptions::default()
            };
            let compiled = match dsagen::compile(adg, &w.kernel, &opts) {
                Ok(c) => c,
                // spu cannot host md, stencil-2d and conv: nothing was tried.
                Err(dsagen::CompileError::NoLegalVersion { tried: 0, .. }) => continue,
                Err(e) => {
                    unmapped.push(e.to_string());
                    continue;
                }
            };
            let c = &compiled;
            match simulate(
                adg,
                &c.version,
                &c.schedule,
                &c.eval,
                c.config_path_len,
                &SimConfig::default(),
            ) {
                Ok(report) => mapped.push(Mapped {
                    adg: fi,
                    kernel: w.kernel,
                    cycles: report.cycles,
                    firings: report.firings,
                    compiled,
                }),
                Err(e) => unmapped.push(format!("{} on {}: {e}", w.kernel.name, adg.name())),
            }
        }
    }
    Setup {
        fabrics,
        mapped,
        unmapped,
    }
}

pub fn run(ctx: &Ctx, rounds: u64) -> Measured {
    let mut out = Measured::default();
    let (s, setup_s) = ctx.setup(|_| setup(ctx));
    out.setup_s = setup_s;
    for why in &s.unmapped {
        out.miss(format!("set-up: {why}"));
    }

    let cfg = SimConfig::default();
    let policy = RecoveryPolicy {
        scheduler: SchedulerConfig {
            seed: sub_seed(ctx.seed, "fabric.repair", 0),
            ..SchedulerConfig::default()
        },
        ..RecoveryPolicy::default()
    };
    let mut digest = Digest::new();
    let mut delivered = Vec::new();
    let (mut plain_cycles, mut plain_s) = (0u64, 0.0);
    let (mut recoveries, mut permanent, mut recovered, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    let mut mttr = Vec::new();

    let started = Instant::now();
    {
        let _timed = ctx.span("timed");
        for round in 0..rounds {
            for (fi, fx) in s.mapped.iter().enumerate() {
                let (adg, area_mm2) = &s.fabrics[fx.adg];
                let c = &fx.compiled;
                let label = |what: &str| {
                    format!(
                        "{what} of {} on {} (round {round})",
                        fx.kernel.name,
                        adg.name()
                    )
                };
                // What both recoveries add to the run's account once they passed
                // their check.
                let mut account = |out: &mut Measured, r: &RecoveryReport, op_started: Instant| {
                    out.op_ms.push(op_started.elapsed().as_secs_f64() * 1e3);
                    out.sim_cycles += r.total_cycles;
                    recoveries += r.recoveries() as u64;
                    if r.recoveries() > 0 {
                        mttr.push(r.mttr_cycles());
                    }
                    digest.push(r.total_cycles);
                    let ratio = (fx.cycles as f64 / r.total_cycles.max(1) as f64).min(1.0);
                    delivered.push(objective(c.perf.perf() * ratio, *area_mm2));
                };

                for _ in 0..FAULT_FREE_RUNS {
                    out.attempted += 1;
                    let op_started = Instant::now();
                    let report = {
                        let _s = ctx.span("sim.run");
                        if ctx.tel.is_enabled() {
                            simulate_instrumented(
                                adg,
                                &c.version,
                                &c.schedule,
                                &c.eval,
                                c.config_path_len,
                                &cfg,
                                &ctx.tel,
                            )
                            .map(|(report, _)| report)
                        } else {
                            simulate(
                                adg,
                                &c.version,
                                &c.schedule,
                                &c.eval,
                                c.config_path_len,
                                &cfg,
                            )
                        }
                    };
                    let elapsed = op_started.elapsed().as_secs_f64();
                    match report {
                        Ok(r) if r.cycles == fx.cycles && r.firings == fx.firings => {
                            out.op_ms.push(elapsed * 1e3);
                            out.sim_cycles += r.cycles;
                            plain_cycles += r.cycles;
                            plain_s += elapsed;
                        }
                        Ok(r) => out.fail_op(format!(
                            "{}: {} cycles, first run {}",
                            label("rerun"),
                            r.cycles,
                            fx.cycles
                        )),
                        Err(e) => out.fail_op(format!("{}: {e}", label("simulation"))),
                    }
                }

                let [transient, lasting] = fault_schedules(ctx.seed, fi, round, fx.cycles);

                out.attempted += 1;
                let op_started = Instant::now();
                let report = {
                    let _s = ctx.span("sim.recover_transient");
                    dsagen::recover(adg, c, &cfg, &transient, &policy, &ctx.tel)
                };
                match report {
                    Ok(r) if r.report.firings == fx.firings => account(&mut out, &r, op_started),
                    Ok(_) => out.fail_op(format!(
                        "{}: firings differ from the fault-free run",
                        label("transient recovery")
                    )),
                    Err(e) => out.fail_op(format!("{}: {e}", label("transient recovery"))),
                }

                out.attempted += 1;
                permanent += 1;
                let op_started = Instant::now();
                let outcome = {
                    let _s = ctx.span("sim.recover_permanent");
                    dsagen::recover_with_degradation(adg, c, &cfg, &lasting, &policy, &ctx.tel)
                };
                match outcome {
                    Ok(outcome) => {
                        match &outcome {
                            RecoveryOutcome::Recovered(_) => recovered += 1,
                            RecoveryOutcome::Degraded { .. } => degraded += 1,
                        }
                        account(&mut out, outcome.report(), op_started);
                    }
                    Err(e) => out.fail_op(format!("{}: {e}", label("permanent-fault recovery"))),
                }
            }
        }
    }
    out.timed_s = started.elapsed().as_secs_f64();

    out.best_objective = geomean(&delivered);
    digest.push(out.sim_cycles);
    out.digest = digest.0;
    out.layer.insert(
        "faults.injected",
        (2 * rounds * s.mapped.len() as u64) as f64,
    );
    out.layer.insert("sim.recoveries", recoveries as f64);
    out.layer.insert(
        "sim.recovered_share",
        recovered as f64 / permanent.max(1) as f64,
    );
    out.layer.insert(
        "sim.degraded_share",
        degraded as f64 / permanent.max(1) as f64,
    );
    out.layer.insert(
        "sim.mttr_cycles_mean",
        mttr.iter().sum::<f64>() / mttr.len().max(1) as f64,
    );
    if plain_s > 0.0 {
        out.layer
            .insert("sim.mcycles_per_s", plain_cycles as f64 / plain_s / 1e6);
    }
    let n = s.mapped.len();
    out.fixtures = s
        .mapped
        .into_iter()
        .enumerate()
        .filter(|(at, _)| [1, n / 2, n.saturating_sub(2)].contains(at))
        .map(|(_, fx)| Fixture {
            adg: s.fabrics[fx.adg].0.clone(),
            kernel: fx.kernel,
            compiled: fx.compiled,
        })
        .collect();
    out
}
