//! Criterion microbenchmarks for the cycle-level simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use dsagen_adg::presets;
use dsagen_dfg::{compile_kernel, TransformConfig};
use dsagen_scheduler::{schedule, SchedulerConfig, Start};
use dsagen_sim::{simulate, SimConfig};
use dsagen_telemetry::Telemetry;

fn bench_simulate(c: &mut Criterion) {
    let cases: Vec<(&str, dsagen_adg::Adg, dsagen_dfg::Kernel, TransformConfig)> = vec![
        (
            "mm32",
            presets::softbrain(),
            dsagen_workloads::polybench::mm(),
            TransformConfig {
                unroll: 4,
                ..TransformConfig::fallback()
            },
        ),
        (
            "histogram-atomic",
            presets::spu(),
            dsagen_workloads::sparse::histogram(),
            TransformConfig {
                indirect: true,
                atomic_update: true,
                ..TransformConfig::fallback()
            },
        ),
        (
            "join-streamjoin",
            presets::spu(),
            dsagen_workloads::sparse::join(),
            TransformConfig {
                stream_join: true,
                ..TransformConfig::fallback()
            },
        ),
    ];
    for (name, adg, kernel, cfg) in cases {
        let ck = compile_kernel(&kernel, &cfg, &adg.features()).expect("compiles");
        let res = schedule(
            &adg,
            &ck,
            &Start::Empty,
            &SchedulerConfig::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(res.is_legal(), "{name}: {:?}", res.eval);
        c.bench_function(&format!("simulate/{name}"), |b| {
            b.iter(|| {
                simulate(
                    &adg,
                    &ck,
                    &res.schedule,
                    &res.eval,
                    0,
                    &SimConfig::default(),
                )
                .unwrap()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulate
}
criterion_main!(benches);
