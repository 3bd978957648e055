//! Criterion microbenchmarks for the codesign machinery: one DSE
//! evaluation step, the area/power regression fit, whole-ADG estimation,
//! configuration-path generation, and bitstream encoding.

use criterion::{criterion_group, criterion_main, Criterion};
use dsagen_adg::presets;
use dsagen_dse::{DseConfig, Explorer};
use dsagen_hwgen::{generate_config_paths, Bitstream};
use dsagen_model::AreaPowerModel;
use dsagen_scheduler::{schedule, Problem, SchedulerConfig, Start};
use dsagen_telemetry::Telemetry;

fn bench_dse_evaluate(c: &mut Criterion) {
    let kernels = vec![
        dsagen_workloads::polybench::mm(),
        dsagen_workloads::nn::classifier(),
    ];
    let cfg = DseConfig {
        sched_iters: 60,
        max_unroll: 4,
        ..DseConfig::default()
    };
    c.bench_function("dse/evaluate-step", |b| {
        b.iter_batched(
            || Explorer::new(presets::dse_initial(), &kernels, cfg),
            |mut ex| ex.evaluate(),
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_area_model(c: &mut Criterion) {
    c.bench_function("model/fit-regression", |b| {
        b.iter(|| AreaPowerModel::fit(0xC0FFEE))
    });
    let model = AreaPowerModel::default();
    let adg = presets::dse_initial();
    c.bench_function("model/estimate-adg", |b| b.iter(|| model.estimate_adg(&adg)));
}

fn bench_hwgen(c: &mut Criterion) {
    let adg = presets::softbrain();
    c.bench_function("hwgen/config-paths-4", |b| {
        b.iter(|| generate_config_paths(&adg, 4, 7))
    });
    let kernel = dsagen_workloads::polybench::mm();
    let ck = dsagen_dfg::compile_kernel(
        &kernel,
        &dsagen_dfg::TransformConfig::fallback(),
        &adg.features(),
    )
    .expect("compiles");
    let res = schedule(
        &adg,
        &ck,
        &Start::Empty,
        &SchedulerConfig::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let problem = Problem::new(&adg, &ck);
    c.bench_function("hwgen/bitstream-encode", |b| {
        b.iter(|| Bitstream::encode(&problem, &res.schedule))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dse_evaluate, bench_area_model, bench_hwgen
}
criterion_main!(benches);
