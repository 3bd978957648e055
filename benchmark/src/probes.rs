//! Probes for layer functions that have no caller-visible boundary in the
//! end-to-end path (`route`, `evaluate`, `Problem::new`, `mutate`,
//! `Adg::fingerprint`, store `put`/`get`, ...): N calls on mappings the
//! workload itself produced, reported per call. They run after the traced
//! timed section and never during an untraced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dsagen::adg::OpSet;
use dsagen::dfg::{compile_kernel, enumerate_configs, interp};
use dsagen::dse::mutate;
use dsagen::hwgen::{
    deframe_words, emit_verilog, frame_words, generate_config_paths, verify_round_trip_timed,
    Bitstream, ProgrammingSession, SessionConfig,
};
use dsagen::model::{AreaPowerModel, PerfModel};
use dsagen::scheduler::{evaluate, route, Problem, Weights};
use dsagen::sim::{simulate, simulate_functional, SimConfig};
use dsagen::store::{ArtifactKey, ArtifactStore, StoreConfig};
use dsagen::CompileOptions;

use crate::harness::{dir_bytes_and_files, Ctx, Fixture};
use crate::inputs::{kernel_inputs, rng, sub_seed};
use crate::stats::median;

const CALLS: usize = 20;

/// Collects the samples of every probe: one per fixture and metric, averaged
/// at the end.
struct Probes<'a> {
    ctx: &'a Ctx,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Probes<'_> {
    /// Times `n` calls under one `probe/<metric>` span and records the mean
    /// microseconds of one call; returns the seconds all of them took.
    fn time(&mut self, metric: &'static str, n: usize, mut call: impl FnMut()) -> f64 {
        let _span = self.ctx.tel.span("probe", metric);
        let started = Instant::now();
        for _ in 0..n {
            call();
        }
        let secs = started.elapsed().as_secs_f64();
        self.samples
            .entry(metric)
            .or_default()
            .push(secs * 1e6 / n as f64);
        secs
    }
}

/// Microseconds of each of `n` calls, for percentiles.
fn each_call_us(ctx: &Ctx, name: &'static str, n: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
    let _span = ctx.tel.span("probe", name);
    (0..n)
        .map(|i| {
            let started = Instant::now();
            call(i);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

pub fn run(ctx: &Ctx, fixtures: &[Fixture]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if fixtures.is_empty() {
        return out;
    }
    let mut p = Probes {
        ctx,
        samples: BTreeMap::new(),
    };
    let area = AreaPowerModel::default();
    let perf = PerfModel::default();
    let weights = Weights::default();
    let cfg = SimConfig::default();
    let (mut words_total, mut verify_s, mut sim_cycles, mut sim_s) = (0usize, 0.0, 0u64, 0.0);
    let (mut framed_words, mut frame_s) = (0usize, 0.0);

    for (fi, fx) in fixtures.iter().enumerate() {
        let (adg, c) = (&fx.adg, &fx.compiled);
        p.time("adg.fingerprint_us_per_call", CALLS, || {
            black_box(adg.fingerprint());
        });
        p.time("adg.features_us_per_call", CALLS, || {
            black_box(adg.features());
        });
        p.time("adg.validate_us_per_call", CALLS, || {
            black_box(adg.validate().is_ok());
        });

        p.time("scheduler.problem_new_us_per_call", CALLS, || {
            black_box(Problem::new(adg, &c.version).entities.len());
        });
        let problem = Problem::new(adg, &c.version);
        p.time("scheduler.evaluate_us_per_call", CALLS, || {
            black_box(evaluate(&problem, &c.schedule, &weights).objective);
        });
        // Re-route the mapping's own dependences against its own congestion.
        let usage = c.schedule.edge_usage();
        let placed = |entity: usize| c.schedule.placement.get(entity).copied().flatten();
        let endpoints: Vec<_> = problem
            .edges
            .iter()
            .filter_map(|e| Some((placed(e.src)?, placed(e.dst)?)))
            .filter(|(from, to)| from != to)
            .take(32)
            .collect();
        if !endpoints.is_empty() {
            let mut next = endpoints.iter().cycle();
            p.time("scheduler.route_us_per_call", endpoints.len(), || {
                let (from, to) = *next.next().expect("cycle of a non-empty list");
                black_box(route(
                    adg,
                    from,
                    to,
                    |e| usage.get(&e).copied().unwrap_or(0),
                    100.0,
                ));
            });
        }

        p.time("model.perf_estimate_us_per_call", CALLS, || {
            black_box(
                perf.estimate(adg, &c.version, &c.schedule, &c.eval, c.config_path_len)
                    .cycles,
            );
        });
        p.time("model.area_estimate_us_per_call", CALLS, || {
            black_box(area.estimate_adg(adg).area_mm2);
        });
        p.time("model.area_fit_us", 2, || {
            black_box(AreaPowerModel::fit(sub_seed(
                ctx.seed,
                "probe.fit",
                fi as u64,
            )));
        });

        p.time("hwgen.encode_us", CALLS, || {
            black_box(Bitstream::encode_with_timing(&problem, &c.schedule, &c.eval).word_count());
        });
        verify_s += p.time("hwgen.verify_us", CALLS, || {
            black_box(verify_round_trip_timed(&problem, &c.schedule, &c.eval).is_ok());
        });
        let bitstream = Bitstream::encode_with_timing(&problem, &c.schedule, &c.eval);
        let words = bitstream.to_words();
        words_total += words.len();
        let frame_reps = (20_000 / words.len().max(1)).max(1);
        frame_s += p.time("hwgen.frame_us", frame_reps, || {
            let framed = frame_words(black_box(&words));
            black_box(deframe_words(&framed, words.len()).is_ok());
        });
        framed_words += frame_reps * words.len();
        p.time("hwgen.config_paths_us", 5, || {
            black_box(generate_config_paths(adg, 4, ctx.seed).longest());
        });
        p.time("hwgen.rtl_us", 5, || {
            black_box(emit_verilog(adg).len());
        });
        p.time("hwgen.session_us", 5, || {
            let mut session = ProgrammingSession::new(&bitstream, SessionConfig::default());
            black_box(session.program(|_, framed| framed.to_vec()).is_verified());
        });

        let features = adg.features();
        p.time("dfg.compile_kernel_us", 5, || {
            for config in enumerate_configs(&fx.kernel, &features, 1) {
                black_box(compile_kernel(&fx.kernel, &config, &features).is_ok());
            }
        });
        let inputs = kernel_inputs(&fx.kernel, ctx.seed);
        p.time("dfg.interp_us", 1, || {
            black_box(interp::execute(&fx.kernel, &inputs).is_ok());
        });

        sim_s += p.time("sim.run_us", 3, || {
            if let Ok(r) = simulate(
                adg,
                &c.version,
                &c.schedule,
                &c.eval,
                c.config_path_len,
                &cfg,
            ) {
                sim_cycles += r.cycles;
            }
        });
        p.time("sim.functional_us", 1, || {
            black_box(
                simulate_functional(
                    adg,
                    &fx.kernel,
                    &c.version,
                    &c.schedule,
                    &c.eval,
                    c.config_path_len,
                    &cfg,
                    &inputs,
                )
                .is_ok(),
            );
        });

        let opts = CompileOptions {
            max_unroll: 1,
            ..CompileOptions::default()
        };
        p.time("core.compile_us", 1, || {
            black_box(dsagen::compile_traced(adg, &fx.kernel, &opts, &ctx.tel).is_ok());
        });
        p.time("core.generate_us", 3, || {
            black_box(dsagen::generate(adg, c, 4, ctx.seed).bitstream.word_count());
        });

        let mut design = adg.clone();
        let mut r = rng(ctx.seed, "probe.mutate");
        p.time("dse.mutate_us_per_call", 50, || {
            black_box(mutate(&mut design, &mut r, &OpSet::all()));
        });
    }
    for (metric, samples) in p.samples {
        out.insert(metric, samples.iter().sum::<f64>() / samples.len() as f64);
    }
    out.insert("hwgen.words", words_total as f64);
    out.insert(
        "hwgen.verify_words_per_s",
        (CALLS * words_total) as f64 / verify_s.max(1e-9),
    );
    out.insert(
        "hwgen.frame_ns_per_word",
        frame_s * 1e9 / framed_words.max(1) as f64,
    );
    out.insert(
        "sim.mcycles_per_s",
        sim_cycles as f64 / sim_s.max(1e-9) / 1e6,
    );
    store_probe(ctx, fixtures, &mut out);
    out
}

/// `put`, `get` hit, `get` miss and `open` on a scratch store, with
/// artifacts minted from the fixtures under distinct keys.
fn store_probe(ctx: &Ctx, fixtures: &[Fixture], out: &mut BTreeMap<&'static str, f64>) {
    const ARTIFACTS: usize = 48;
    let dir = ctx.scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let Ok(store) = ArtifactStore::open(&dir, StoreConfig::default(), ctx.tel.clone()) else {
        return;
    };
    let artifacts: Vec<_> = (0..ARTIFACTS)
        .map(|i| {
            let fx = &fixtures[i % fixtures.len()];
            let problem = Problem::new(&fx.adg, &fx.compiled.version);
            let words =
                Bitstream::encode_with_timing(&problem, &fx.compiled.schedule, &fx.compiled.eval)
                    .to_words();
            let key = ArtifactKey {
                adg_fp: fx.adg.fingerprint(),
                kernel_hash: fx.compiled.version.content_hash(),
                sched_seed: i as u64,
            };
            dsagen::store::artifact(
                key,
                fx.compiled.schedule.clone(),
                Some(fx.compiled.perf.perf()),
                None,
                words,
            )
        })
        .collect();
    let put = each_call_us(ctx, "store.put", ARTIFACTS, |i| {
        black_box(store.put(&artifacts[i]).is_ok());
    });
    let hit = each_call_us(ctx, "store.get_hit", ARTIFACTS, |i| {
        black_box(matches!(store.get(artifacts[i].key), Ok(Some(_))));
    });
    let miss = each_call_us(ctx, "store.get_miss", ARTIFACTS, |i| {
        let absent = ArtifactKey {
            sched_seed: u64::MAX - i as u64,
            ..artifacts[i].key
        };
        black_box(matches!(store.get(absent), Ok(None)));
    });
    let open = each_call_us(ctx, "store.open", 3, |_| {
        black_box(ArtifactStore::open(&dir, StoreConfig::default(), ctx.tel.clone()).is_ok());
    });
    let stats = store.stats();
    if stats.puts as usize != ARTIFACTS
        || stats.hits as usize != ARTIFACTS
        || stats.quarantined != 0
    {
        eprintln!("  store probe: unexpected counters {stats:?}");
    }
    out.insert("store.put_us_p50", median(&put));
    out.insert("store.get_hit_us_p50", median(&hit));
    out.insert("store.get_miss_us_p50", median(&miss));
    out.insert("store.open_us", median(&open));
    let (bytes, _) = dir_bytes_and_files(store.entries_dir());
    out.insert("store.bytes_per_artifact", bytes as f64 / ARTIFACTS as f64);
    let _ = std::fs::remove_dir_all(&dir);
}
