//! Criterion microbenchmarks for the spatial scheduler: full scheduling,
//! schedule repair after a hardware mutation (the §V-A fast path), and the
//! congestion-aware router.

use criterion::{criterion_group, criterion_main, Criterion};
use dsagen_adg::presets;
use dsagen_dfg::{compile_kernel, TransformConfig};
use dsagen_scheduler::{route, schedule, Problem, SchedulerConfig, Start};
use dsagen_telemetry::Telemetry;

fn compiled_mm(unroll: u16) -> (dsagen_adg::Adg, dsagen_dfg::CompiledKernel) {
    let adg = presets::softbrain();
    let kernel = dsagen_workloads::polybench::mm();
    let ck = compile_kernel(
        &kernel,
        &TransformConfig {
            unroll,
            ..TransformConfig::fallback()
        },
        &adg.features(),
    )
    .expect("mm compiles");
    (adg, ck)
}

fn bench_schedule(c: &mut Criterion) {
    let cfg = SchedulerConfig {
        max_iters: 100,
        ..SchedulerConfig::default()
    };
    for unroll in [1u16, 4] {
        let (adg, ck) = compiled_mm(unroll);
        c.bench_function(&format!("schedule/mm-unroll{unroll}"), |b| {
            b.iter(|| schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled()).unwrap())
        });
    }
}

fn bench_repair_vs_remap(c: &mut Criterion) {
    let cfg = SchedulerConfig {
        max_iters: 100,
        ..SchedulerConfig::default()
    };
    let (mut adg, ck) = compiled_mm(4);
    let first = schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled()).unwrap();
    assert!(first.is_legal());
    // Remove one PE used by the schedule (the §V DSE mutation).
    let problem = Problem::new(&adg, &ck);
    let victim = problem
        .entities
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e.kind {
            dsagen_scheduler::EntityKind::Op { .. } => first.schedule.placement[i],
            _ => None,
        })
        .expect("an op is placed");
    adg.remove_node(victim).expect("victim exists");

    c.bench_function("repair/after-pe-removal", |b| {
        let start = Start::Repair { previous: &first.schedule, scope: None, max_attempts: 1 };
        b.iter(|| schedule(&adg, &ck, &start, &cfg, &Telemetry::disabled()).unwrap())
    });
    c.bench_function("repair/full-remap-baseline", |b| {
        b.iter(|| schedule(&adg, &ck, &Start::Empty, &cfg, &Telemetry::disabled()).unwrap())
    });
}

fn bench_router(c: &mut Criterion) {
    let adg = presets::softbrain();
    let src = adg.syncs().next().expect("syncs exist");
    let dst = adg.pes().last().expect("pes exist");
    c.bench_function("route/sync-to-far-pe", |b| {
        b.iter(|| route(&adg, src, dst, |_| 0, 100.0))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_schedule, bench_repair_vs_remap, bench_router
}
criterion_main!(benches);
