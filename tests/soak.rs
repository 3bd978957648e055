//! Fault-storm soak matrix: seeded multi-fault storms (bursts,
//! correlated neighbors, escalating permanence) driven through the full
//! degradation ladder across ≥3 presets × ≥5 workloads × multiple seeds.
//!
//! Contract under storm injection:
//!
//! - **No panics, no avoidable aborts.** Every run terminates in a typed
//!   outcome; a [`RecoveryError`] abort is a test failure (the
//!   degradation ladder must always find a rung that serves).
//! - **Bounded detection latency.** Blocking faults are caught by the
//!   watchdog within its bound; silent corruption by the residue check
//!   within two scrub intervals.
//! - **Functional correctness.** Recovered *and* degraded runs complete
//!   exactly the fault-free firing count — degraded mode trades
//!   throughput, never results.
//! - **Monotonic degradation.** Over growing prefixes of the same storm,
//!   throughput never *improves* beyond jitter tolerance: more damage
//!   can only slow the fabric down.
//! - **Bit-identical replay.** The same (storm seed, preset, workload)
//!   triple reproduces the identical outcome, event log and cycle count.
//!
//! The seed set is overridable via `DSAGEN_SOAK_SEED=<u64>` so CI can
//! fan the matrix out across jobs.

use dsagen::adg::presets;
use dsagen::dfg::Kernel;
use dsagen::faults::{FaultSchedule, StormConfig};
use dsagen::prelude::*;
use dsagen::sim::SimConfig;
use dsagen::telemetry::{Event, MetricsRegistry, Telemetry};

/// Seeds for the soak matrix. `DSAGEN_SOAK_SEED=<u64>` narrows the run
/// to a single seed so CI can shard storms across jobs.
fn seeds() -> Vec<u64> {
    match std::env::var("DSAGEN_SOAK_SEED") {
        Ok(s) => match s.trim().parse::<u64>() {
            Ok(v) => vec![v],
            Err(_) => vec![0x50AC, 77],
        },
        Err(_) => vec![0x50AC, 77],
    }
}

fn fixtures() -> Vec<(&'static str, Adg)> {
    vec![
        ("softbrain", presets::softbrain()),
        ("spu", presets::spu()),
        ("revel", presets::revel()),
    ]
}

fn workloads() -> Vec<(&'static str, Kernel)> {
    vec![
        ("mvt", dsagen::workloads::polybench::mvt()),
        ("atax", dsagen::workloads::polybench::atax()),
        ("bicg", dsagen::workloads::polybench::bicg()),
        ("mm16", dsagen::workloads::machsuite::gemm_kernel("mm16", 16)),
        ("spmv-crs", dsagen::workloads::machsuite::spmv_crs()),
        ("pipe-split", dsagen::workloads::polybench::pipe_split()),
    ]
}

/// Compiles `kernel` onto `adg`; `None` when the kernel does not map.
/// Unroll is capped to keep the cycle-accurate storm replay affordable
/// in debug builds.
fn build(adg: &Adg, kernel: &Kernel) -> Option<(Compiled, u64)> {
    let opts = CompileOptions {
        max_unroll: 2,
        ..CompileOptions::default()
    };
    let compiled = dsagen::compile(adg, kernel, &opts).ok()?;
    let plain = dsagen::sim::simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &SimConfig::default(),
    )
    .ok()?;
    Some((compiled, plain.firings.iter().sum()))
}

/// A storm sized to the run: bursts land inside the fault-free cycle
/// span so every arrival strikes mid-execution.
fn storm_for(seed: u64, horizon: u64) -> FaultSchedule {
    FaultSchedule::storm(
        seed,
        &StormConfig {
            horizon: horizon.max(256),
            ..StormConfig::default()
        },
    )
}

/// The documented detection-latency ceiling: watchdog bound for blocking
/// faults, two scrub intervals for silent corruption.
fn detection_bound(policy: &RecoveryPolicy) -> u64 {
    policy.rt.watchdog_bound.max(2 * policy.rt.residue_interval)
}

#[test]
fn storm_matrix_terminates_typed_with_bounded_detection() {
    let policy = RecoveryPolicy::default();
    let bound = detection_bound(&policy);
    let mut ran = 0usize;
    let mut degraded_runs = 0usize;
    for (preset, adg) in fixtures() {
        for (kname, kernel) in &workloads() {
            let Some((compiled, plain_firings)) = build(&adg, kernel) else {
                continue;
            };
            for seed in seeds() {
                let storm = storm_for(seed, compiled.perf.cycles as u64);
                let out = recover_with_degradation(
                    &adg,
                    &compiled,
                    &SimConfig::default(),
                    &storm,
                    &policy,
                    &Telemetry::disabled(),
                )
                .unwrap_or_else(|e| {
                    panic!("{preset}/{kname} seed {seed:#x}: storm aborted: {e}")
                });
                let report = out.report();
                for ev in &report.events {
                    assert!(
                        ev.detection_latency <= bound,
                        "{preset}/{kname} seed {seed:#x}: {} detected after {} cycles \
(bound {bound})",
                        ev.fault.kind,
                        ev.detection_latency
                    );
                }
                let total: u64 = report.report.firings.iter().sum();
                assert_eq!(
                    total, plain_firings,
                    "{preset}/{kname} seed {seed:#x}: storm run lost work"
                );
                let ratio = out.throughput_ratio();
                assert!(
                    ratio > 0.0 && ratio <= 1.0,
                    "{preset}/{kname} seed {seed:#x}: ratio {ratio}"
                );
                if out.is_degraded() {
                    degraded_runs += 1;
                }
                ran += 1;
            }
        }
    }
    assert!(ran >= 10, "soak matrix too small: only {ran} runs mapped");
    // Not asserted > 0: whether a storm exhausts the structural rungs
    // depends on the seed. Tracked so a future regression that silently
    // disables the ladder shows up as a changed count under fixed seeds.
    let _ = degraded_runs;
}

#[test]
fn storm_replay_is_bit_identical() {
    let policy = RecoveryPolicy::default();
    for (preset, adg) in fixtures() {
        let (kname, kernel) = &workloads()[0];
        let Some((compiled, _)) = build(&adg, kernel) else {
            continue;
        };
        let seed = seeds()[0];
        let storm = storm_for(seed, compiled.perf.cycles as u64);
        let run = || {
            recover_with_degradation(
                &adg,
                &compiled,
                &SimConfig::default(),
                &storm,
                &policy,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{preset}/{kname} seed {seed:#x}: {e}"))
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "{preset}/{kname} seed {seed:#x}: replay diverged");
    }
}

#[test]
fn degradation_is_monotonic_over_storm_prefixes() {
    let policy = RecoveryPolicy::default();
    let (_, adg) = &fixtures()[0];
    let (kname, kernel) = &workloads()[0];
    let (compiled, plain_firings) = build(adg, kernel).expect("softbrain/mvt maps");
    // One seed (the sharded one under DSAGEN_SOAK_SEED): each prefix is
    // a full cycle-accurate replay, so the sweep is kept narrow.
    {
        let seed = seeds()[0];
        let storm = storm_for(seed, compiled.perf.cycles as u64);
        let mut prev_ratio = f64::INFINITY;
        for k in 0..=storm.len() {
            let prefix = storm.prefix(k);
            let out = recover_with_degradation(
                adg,
                &compiled,
                &SimConfig::default(),
                &prefix,
                &policy,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{kname} seed {seed:#x} prefix {k}: {e}"));
            let total: u64 = out.report().report.firings.iter().sum();
            assert_eq!(total, plain_firings, "{kname} seed {seed:#x} prefix {k}");
            let ratio = out.throughput_ratio();
            // More faults can only slow the fabric down. Repair is a
            // stochastic search, so allow a small jitter tolerance.
            assert!(
                ratio <= prev_ratio + 0.10,
                "{kname} seed {seed:#x}: prefix {k} ratio {ratio:.3} improved past \
{prev_ratio:.3}"
            );
            prev_ratio = ratio.min(prev_ratio);
        }
    }
}

#[test]
fn degraded_telemetry_spans_are_emitted_when_the_ladder_bottoms_out() {
    // A saturated 1×2 fabric forces the ladder past its structural rungs
    // deterministically (decommissioning either busy PE is infeasible),
    // so the `recovery/degraded` spans must appear.
    use dsagen::adg::{OpSet, PeSpec, Scheduling, Sharing};
    use dsagen::faults::FaultKind;
    let pe = PeSpec::new(
        Scheduling::Static,
        Sharing::Dedicated,
        OpSet::integer_alu().union(OpSet::integer_mul()),
    );
    let adg = presets::mesh(&presets::MeshConfig::new("soak-tiny", 1, 2, pe));
    // A 256-element dot product: one Mul and one reducing Add, exactly
    // filling the two dedicated PEs.
    let mut k = KernelBuilder::new("soak-dot");
    let a = k.array("a", BitWidth::B64, 256, MemClass::MainMemory);
    let b = k.array("b", BitWidth::B64, 256, MemClass::MainMemory);
    let c = k.array("c", BitWidth::B64, 1, MemClass::MainMemory);
    let mut r = k.region("body", 1.0);
    let i = r.for_loop(TripCount::fixed(256), true);
    let va = r.load(a, AffineExpr::var(i));
    let vb = r.load(b, AffineExpr::var(i));
    let p = r.bin(Opcode::Mul, va, vb);
    let acc = r.reduce(Opcode::Add, p, i);
    r.store(c, AffineExpr::constant(0), acc);
    k.finish_region(r);
    let kernel = k.build().expect("dot builds");
    let Some((compiled, _)) = build(&adg, &kernel) else {
        panic!("dot must map onto the 1x2 mesh");
    };
    let faults = FaultSchedule::new(seeds()[0]).with(
        200,
        FaultLifetime::Permanent,
        FaultKind::DeadPe,
    );
    let tel = Telemetry::in_memory().with_metrics(MetricsRegistry::enabled());
    let out = recover_with_degradation(
        &adg,
        &compiled,
        &SimConfig::default(),
        &faults,
        &RecoveryPolicy::default(),
        &tel,
    )
    .expect("degraded rung must serve");
    assert!(out.is_degraded(), "got {out}");
    let events = tel.events();
    assert!(
        events
            .iter()
            .any(|e| e.cat == "recovery/degraded" && e.name == "reschedule"),
        "missing recovery/degraded reschedule span"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "recovery/degraded" && e.name == "entered"),
        "missing recovery/degraded entered event"
    );
    assert!(
        events
            .iter()
            .any(|e| e.cat == "recovery/degraded" && e.name == "throughput"),
        "missing recovery/degraded throughput event"
    );
    assert!(
        events.iter().any(|e| e.cat == "recovery" && e.name == "rung"),
        "missing recovery rung attribution"
    );
    // The ladder's path searches reach the trace and the metrics: the
    // structural rungs' repairs inside `recovery/repair`, the relaxed
    // reschedule inside the degraded `reschedule`.
    let searches: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "sched" && e.name.starts_with("path_search"))
        .collect();
    for (cat, name) in [("recovery", "repair"), ("recovery/degraded", "reschedule")] {
        let inside = events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .any(|outer| searches.iter().any(|search| encloses(outer, search)));
        assert!(inside, "no sched/path_search span inside {cat}/{name}");
    }
    let invocations = tel.metrics().snapshot().counter("scheduler.path_search.invocations");
    assert!(invocations.unwrap_or(0) > 0, "recovery's searches are not counted");
}

/// Whether span `inner` ran inside span `outer`: same thread, deeper, and
/// within its interval.
fn encloses(outer: &Event, inner: &Event) -> bool {
    let end = |e: &Event| e.ts_us + e.dur_us.unwrap_or(0);
    outer.tid == inner.tid
        && inner.depth > outer.depth
        && outer.ts_us <= inner.ts_us
        && end(inner) <= end(outer)
}

/// The concurrent multi-domain workload: `pipe-split`'s two live
/// pipeline stages touch disjoint memories, so they must partition into
/// two recovery domains on every soak preset — and across a small seed
/// sweep, domain-sliced rollback must actually engage (non-zero
/// `replayed_cycles_saved`), the ROADMAP gap this fixture closes.
#[test]
fn pipe_split_forms_two_live_domains_and_scoped_rollback_saves_replay() {
    let policy = RecoveryPolicy::default();
    let mut saved_total: u64 = 0;
    let mut mapped = 0usize;
    for (preset, adg) in fixtures() {
        let kernel = dsagen::workloads::polybench::pipe_split();
        let Some((compiled, plain_firings)) = build(&adg, &kernel) else {
            continue;
        };
        mapped += 1;
        let doms = dsagen::sim::RecoveryDomains::derive(
            &adg,
            &compiled.version,
            &compiled.schedule,
        );
        assert!(
            doms.len() >= 2,
            "{preset}: pipe-split stages collapsed into {} domain(s)",
            doms.len()
        );
        for seed in [0x50ACu64, 77, 3, 5] {
            let storm = storm_for(seed, compiled.perf.cycles as u64);
            let out = recover_with_degradation(
                &adg,
                &compiled,
                &SimConfig::default(),
                &storm,
                &policy,
                &Telemetry::disabled(),
            )
            .unwrap_or_else(|e| panic!("{preset}/pipe-split seed {seed:#x}: {e}"));
            let report = out.report();
            let total: u64 = report.report.firings.iter().sum();
            assert_eq!(
                total, plain_firings,
                "{preset}/pipe-split seed {seed:#x}: storm run lost work"
            );
            saved_total += report.replayed_cycles_saved();
        }
    }
    assert!(mapped >= 2, "pipe-split must map on most presets, got {mapped}");
    assert!(
        saved_total > 0,
        "domain-sliced rollback never engaged across the pipe-split sweep"
    );
}
