//! Telemetry conservation-law and invisibility tests.
//!
//! Two contracts are verified here, across presets × workloads:
//!
//! 1. **Conservation laws** — the simulator's hardware counters account
//!    for every cycle exactly: per PE, `busy + stalled + idle == cycles`
//!    and the stall taxonomy sums to the stalled total; in aggregate the
//!    taxonomy ties out against the public [`StallBreakdown`] plus the
//!    barrier and configuration charges.
//! 2. **Invisibility** — enabling telemetry never changes functional
//!    outputs: the instrumented simulator returns the same report as the
//!    plain one, instrumented compilation picks the same version, and an
//!    instrumented DSE run reproduces the uninstrumented trace
//!    step-for-step.

use dsagen::prelude::*;
use dsagen::sim::{simulate, simulate_instrumented, SimConfig, SimTelemetry};
use dsagen::telemetry::{chrome_trace, Event, Telemetry};
use proptest::prelude::*;

fn quick_opts() -> CompileOptions {
    CompileOptions {
        max_unroll: 4,
        scheduler: SchedulerConfig {
            max_iters: 150,
            ..SchedulerConfig::default()
        },
        ..CompileOptions::default()
    }
}

/// The preset × workload matrix: three fabrics, five kernels.
fn presets() -> Vec<Adg> {
    vec![
        dsagen::adg::presets::softbrain(),
        dsagen::adg::presets::spu(),
        dsagen::adg::presets::revel(),
    ]
}

fn workloads() -> Vec<dsagen::dfg::Kernel> {
    vec![
        dsagen::workloads::polybench::mvt(),
        dsagen::workloads::polybench::atax(),
        dsagen::workloads::machsuite::mm(),
        dsagen::workloads::dsp::fir16(),
        dsagen::workloads::sparse::histogram(),
    ]
}

/// Runs both simulators and checks every conservation law for one
/// (adg, compiled) pair. Returns the telemetry for extra checks.
fn check_conservation(adg: &Adg, compiled: &dsagen::Compiled) -> SimTelemetry {
    let cfg = SimConfig::default();
    let plain = simulate(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &cfg,
    )
    .expect("healthy fabric simulates");
    let tel = Telemetry::in_memory();
    let (report, hw) = simulate_instrumented(
        adg,
        &compiled.version,
        &compiled.schedule,
        &compiled.eval,
        compiled.config_path_len,
        &cfg,
        &tel,
    )
    .expect("healthy fabric simulates");

    // Invisibility: the instrumented run returns the plain report.
    assert_eq!(report, plain, "instrumentation changed the simulation");
    assert_eq!(hw.cycles, report.cycles);

    // Per-PE conservation: busy + stalled + idle == cycles, and the
    // taxonomy sums to the stalled total.
    for pe in &hw.pes {
        assert_eq!(
            pe.busy + pe.stalled + pe.idle,
            pe.cycles,
            "PE {} on {}: busy {} + stalled {} + idle {} != cycles {}",
            pe.node,
            adg.name(),
            pe.busy,
            pe.stalled,
            pe.idle,
            pe.cycles
        );
        assert_eq!(
            pe.stalls.total(),
            pe.stalled,
            "PE {} taxonomy does not sum to its stalled total",
            pe.node
        );
        assert!(pe.utilization() <= 1.0 + 1e-9);
    }

    // Aggregate conservation: the taxonomy ties out against the public
    // stall breakdown plus the barrier and configuration charges.
    let s = &report.stalls;
    assert_eq!(hw.taxonomy.memory, s.memory);
    assert_eq!(hw.taxonomy.operand_wait, s.operands);
    assert_eq!(hw.taxonomy.backpressure, s.backpressure);
    assert_eq!(hw.taxonomy.ii, s.ii);
    assert_eq!(hw.taxonomy.ctrl, s.ctrl);
    assert_eq!(hw.taxonomy.barrier, hw.barrier_cycles);
    assert_eq!(hw.taxonomy.config, hw.config_cycles);
    assert_eq!(
        hw.taxonomy.total(),
        s.memory
            + s.operands
            + s.backpressure
            + s.ii
            + s.ctrl
            + hw.barrier_cycles
            + hw.config_cycles,
    );

    // Per-region tallies are exclusive per cycle, so they cannot exceed
    // their group's timeline.
    for (ri, tally) in hw.region_tallies.iter().enumerate() {
        let group_cycles = hw.group_cycles.get(tally.group).copied().unwrap_or(0);
        assert!(
            tally.fired_cycles + tally.ii + tally.operands + tally.backpressure <= group_cycles,
            "region {ri} tally exceeds its group timeline"
        );
    }

    // Stream counters stay within capacity.
    for st in &hw.streams {
        if st.fifo_cap > 0.0 {
            assert!(
                st.fifo_highwater <= st.fifo_cap + 1e-9,
                "stream {}/{} high-water {} exceeds capacity {}",
                st.region,
                st.index,
                st.fifo_highwater,
                st.fifo_cap
            );
        }
        assert!(st.occupancy_peak() <= 1.0 + 1e-9);
    }

    // The run emitted a simulate span.
    assert!(
        tel.events().iter().any(|e| e.name == "simulate"),
        "no simulate span emitted"
    );
    hw
}

#[test]
fn conservation_laws_hold_across_presets_and_workloads() {
    let opts = quick_opts();
    let mut ran = 0;
    let mut with_pes = 0;
    for adg in presets() {
        for kernel in workloads() {
            let Ok(compiled) = dsagen::compile(&adg, &kernel, &opts) else {
                // A fabric with no legal version for this kernel is
                // allowed (e.g. missing feature class); the floor below
                // keeps the matrix honest.
                continue;
            };
            let hw = check_conservation(&adg, &compiled);
            // Some kernels (e.g. pure scatter/update loops) legitimately
            // map no entities onto PEs; most of the matrix must.
            if !hw.pes.is_empty() {
                with_pes += 1;
            }
            ran += 1;
        }
    }
    assert!(ran >= 10, "only {ran}/15 preset x workload pairs ran");
    assert!(
        with_pes >= 8,
        "only {with_pes}/{ran} runs produced PE counters"
    );
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

#[test]
fn instrumented_compile_is_invisible_and_produces_loadable_trace() {
    let adg = dsagen::adg::presets::softbrain();
    let kernel = dsagen::workloads::polybench::mvt();
    let opts = quick_opts();

    let plain = dsagen::compile(&adg, &kernel, &opts).expect("mvt compiles on softbrain");
    let tel = Telemetry::in_memory();
    let traced = dsagen::compile_traced(&adg, &kernel, &opts, &tel).expect("traced compile");

    // Invisibility: identical winner (the Debug form captures every field).
    assert_eq!(format!("{traced:?}"), format!("{plain:?}"));

    // The phase spans landed: compile, config-paths, schedule, model.
    let events = tel.events();
    let compile_span = format!("compile {}", kernel.name);
    for phase in [compile_span.as_str(), "config-paths", "schedule", "model"] {
        assert!(
            events.iter().any(|e| e.cat == "phase" && e.name == phase),
            "missing phase span {phase}"
        );
    }

    // Each candidate's scheduling phase holds the path search it ran.
    let searches: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "sched" && e.name == "path_search")
        .collect();
    for phase in events
        .iter()
        .filter(|e| e.cat == "phase" && e.name == "schedule")
    {
        assert!(
            searches.iter().any(|search| encloses(phase, search)),
            "a phase/schedule span at {} us has no sched/path_search inside it",
            phase.ts_us
        );
    }

    // The Chrome-trace export is loadable JSON: one traceEvents array,
    // balanced braces, span events carrying durations.
    let trace = chrome_trace(&events);
    assert!(trace.starts_with("{\n\"traceEvents\": ["), "{trace}");
    assert!(trace.trim_end().ends_with('}'), "{trace}");
    let opens = trace.matches('{').count();
    let closes = trace.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in chrome trace");
    assert!(trace.contains("\"ph\": \"X\""), "no complete (span) events");
}

#[test]
fn dse_telemetry_is_invisible() {
    use dsagen::dse::{DseConfig, Explorer};
    let kernels = vec![
        dsagen::workloads::polybench::mvt(),
        dsagen::workloads::dsp::fir16(),
    ];
    let cfg = DseConfig {
        max_iters: 8,
        patience: 8,
        sched_iters: 40,
        max_unroll: 2,
        shards: 2,
        threads: 2,
        ..DseConfig::default()
    };
    let adg = dsagen::adg::presets::dse_initial();

    let plain = Explorer::new(adg.clone(), &kernels, cfg).run();
    let tel = Telemetry::in_memory();
    let mut ex = Explorer::new(adg, &kernels, cfg).with_telemetry(tel.clone());
    let traced = ex.run();

    // Invisibility: identical traces (IterRecord equality ignores only
    // wall_ms) and identical winner.
    assert_eq!(traced.trace, plain.trace);
    assert_eq!(traced.shard_traces, plain.shard_traces);
    assert_eq!(traced.best.objective, plain.best.objective);
    assert_eq!(traced.best_adg, plain.best_adg);

    // The dse span and per-iteration events landed.
    let events = tel.events();
    assert!(events.iter().any(|e| e.cat == "phase" && e.name == "dse"));
    let iters = events
        .iter()
        .filter(|e| e.cat == "dse" && e.name == "iteration")
        .count();
    let expected: usize = traced.shard_traces.iter().map(Vec::len).sum();
    assert_eq!(iters, expected, "one iteration event per trace record");
}

/// A fixed-seed exploration folded by `profile`: the `phase/dse` span
/// holds a `sched/path_search` bucket, and its named child buckets cover
/// at least 95% of it, so no phase of the explorer runs outside a span.
#[test]
fn profile_attributes_the_dse_span_to_named_buckets() {
    use dsagen::dse::{DseConfig, Explorer};
    let kernels = vec![
        dsagen::workloads::polybench::mvt(),
        dsagen::workloads::machsuite::mm(),
    ];
    let cfg = DseConfig {
        seed: 0x9806,
        shards: 2,
        threads: 1,
        max_iters: 16,
        patience: 16,
        sched_iters: 60,
        max_unroll: 4,
        ..DseConfig::default()
    };
    let tel = Telemetry::in_memory();
    Explorer::new(dsagen::adg::presets::dse_initial(), &kernels, cfg)
        .with_telemetry(tel.clone())
        .run();
    let report = dsagen::telemetry::profile(&tel.events());
    let flame = report.flame();
    let dse = report.find("dse").expect("a phase/dse span");
    assert_eq!(dse.key(), "phase/dse");
    assert!(
        dse.children.iter().any(|c| c.key() == "sched/path_search"),
        "no sched/path_search bucket under phase/dse:\n{flame}"
    );
    let named: u64 = dse.children.iter().map(|c| c.total_us).sum();
    assert!(
        named as f64 >= 0.95 * dse.total_us as f64,
        "named buckets cover {named} of {} us of phase/dse:\n{flame}",
        dse.total_us
    );
}

#[test]
fn explorer_stats_aggregate_across_shards() {
    use dsagen::dse::{DseConfig, Explorer};
    let kernels = vec![dsagen::workloads::polybench::mvt()];
    let cfg = DseConfig {
        max_iters: 6,
        patience: 6,
        sched_iters: 40,
        max_unroll: 2,
        shards: 3,
        threads: 2,
        ..DseConfig::default()
    };
    let mut ex = Explorer::new(dsagen::adg::presets::dse_initial(), &kernels, cfg);
    let before = ex.telemetry_snapshot();
    let result = ex.run();
    let after = ex.telemetry_snapshot();
    let delta = after.delta_since(&before);

    // The run did real work, both getters read from the same aggregated
    // counters the snapshot exposes, and a sane encoder/decoder pair
    // rejected no configuration.
    assert!(delta.sched_invocations > 0);
    assert!(result.trace.len() > 1);
    assert_eq!(after.sched_invocations, ex.sched_invocations());
    assert_eq!(after.config_rejections, 0, "encoder/decoder disagreed");
    assert_eq!(after.cache.lookups(), ex.cache_stats().lookups());

    // Shard-aggregation: the whole-run work counters are at least the
    // winning shard's trace totals (other shards add on top).
    let trace_passes: u64 = result.trace.iter().map(|r| r.sched_passes).sum();
    assert!(
        delta.sched_invocations >= trace_passes,
        "aggregate {} < winning shard {}",
        delta.sched_invocations,
        trace_passes
    );
}

/// Sharded DSE with the metrics registry and flight recorder on is
/// bit-identical to a plain run, and the merged registry snapshot is
/// itself (seed, shards)-deterministic: the same exploration at a
/// different executor width merges to the identical snapshot.
#[test]
fn dse_metrics_and_recorder_are_invisible_and_merge_deterministically() {
    use dsagen::dse::{DseConfig, Explorer};
    use dsagen::telemetry::{FlightRecorder, MetricsRegistry};
    let kernels = vec![
        dsagen::workloads::polybench::mvt(),
        dsagen::workloads::dsp::fir16(),
    ];
    let cfg = DseConfig {
        max_iters: 8,
        patience: 8,
        sched_iters: 40,
        max_unroll: 2,
        shards: 2,
        threads: 2,
        ..DseConfig::default()
    };
    let adg = dsagen::adg::presets::dse_initial();

    let plain = Explorer::new(adg.clone(), &kernels, cfg).run();

    let run_observed = |threads: usize| {
        let reg = MetricsRegistry::enabled();
        let tel = Telemetry::in_memory()
            .with_metrics(reg.clone())
            .with_recorder(FlightRecorder::enabled());
        let cfg = DseConfig { threads, ..cfg };
        let recorder = tel.recorder().clone();
        let mut ex = Explorer::new(adg.clone(), &kernels, cfg).with_telemetry(tel);
        let result = ex.run();
        (result, reg.snapshot(), recorder)
    };
    let (observed, snap2, recorder) = run_observed(2);

    // Invisibility: identical traces and identical winner.
    assert_eq!(observed.trace, plain.trace);
    assert_eq!(observed.shard_traces, plain.shard_traces);
    assert_eq!(
        observed.best.objective.to_bits(),
        plain.best.objective.to_bits()
    );
    assert_eq!(observed.best_adg, plain.best_adg);

    // The registry saw the exploration: per-shard counters were merged.
    let iters: usize = observed.shard_traces.iter().map(Vec::len).sum();
    assert_eq!(snap2.counter("dse.iterations"), Some(iters as u64));
    assert!(snap2.counter("dse.sched_invocations").unwrap_or(0) > 0);
    // The recorder ring holds structured events (cache decisions and
    // rejections both count); a bounded ring is allowed to be shorter
    // than the run, never required to be empty here.
    assert!(
        !recorder.is_empty(),
        "flight recorder saw no cache/rejection events across {iters} iterations"
    );

    // Determinism of the merge: a serial executor produces the identical
    // snapshot, so counters depend on (seed, shards), not thread timing.
    let (serial, snap1, _) = run_observed(1);
    assert_eq!(serial.trace, plain.trace);
    assert_eq!(snap1, snap2, "metrics merge depends on executor width");
}

proptest! {
    // Each case compiles + simulates twice; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Enabling telemetry never changes functional outputs, for any
    /// scheduler seed: same chosen version, same schedule, same simulated
    /// report.
    #[test]
    fn telemetry_is_invisible_for_any_seed(seed in any::<u64>()) {
        let adg = dsagen::adg::presets::softbrain();
        let kernel = dsagen::workloads::polybench::bicg();
        let opts = CompileOptions {
            max_unroll: 2,
            scheduler: SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() },
            ..CompileOptions::default()
        };
        let plain = dsagen::compile(&adg, &kernel, &opts);
        let tel = Telemetry::in_memory();
        let traced = dsagen::compile_traced(&adg, &kernel, &opts, &tel);
        match (plain, traced) {
            (Ok(p), Ok(t)) => {
                prop_assert_eq!(format!("{:?}", &t), format!("{:?}", &p));
                let cfg = SimConfig::default();
                let plain_report = simulate(
                    &adg, &p.version, &p.schedule, &p.eval, p.config_path_len, &cfg,
                );
                let traced_result = simulate_instrumented(
                    &adg, &t.version, &t.schedule, &t.eval, t.config_path_len, &cfg, &tel,
                );
                match (plain_report, traced_result) {
                    (Ok(pr), Ok((tr, _))) => prop_assert_eq!(tr, pr),
                    (Err(pe), Err(te)) => prop_assert_eq!(format!("{te}"), format!("{pe}")),
                    (pr, tr) => prop_assert!(
                        false,
                        "sim divergence: plain {:?} vs traced {:?}",
                        pr.is_ok(),
                        tr.is_ok()
                    ),
                }
            }
            (Err(p), Err(t)) => prop_assert_eq!(format!("{t}"), format!("{p}")),
            (p, t) => prop_assert!(false, "divergence: plain {:?} vs traced {:?}", p.is_ok(), t.is_ok()),
        }
    }

    /// The other two observability pillars are invisible too: with the
    /// metrics registry and flight recorder enabled (event sink off),
    /// the simulated report — firing traces included — is bit-identical
    /// for any scheduler seed, and the engine counters actually landed.
    #[test]
    fn metrics_and_recorder_are_invisible_for_any_seed(seed in any::<u64>()) {
        use dsagen::telemetry::{FlightRecorder, MetricsRegistry};
        let adg = dsagen::adg::presets::softbrain();
        let kernel = dsagen::workloads::polybench::bicg();
        let opts = CompileOptions {
            max_unroll: 2,
            scheduler: SchedulerConfig { max_iters: 60, seed, ..SchedulerConfig::default() },
            ..CompileOptions::default()
        };
        let Ok(c) = dsagen::compile(&adg, &kernel, &opts) else {
            return Ok(()); // unmappable under this seed: nothing to compare
        };
        let cfg = SimConfig::default();
        let plain = simulate(&adg, &c.version, &c.schedule, &c.eval, c.config_path_len, &cfg)
            .expect("compiled schedule simulates");
        let reg = MetricsRegistry::enabled();
        let tel = Telemetry::disabled()
            .with_metrics(reg.clone())
            .with_recorder(FlightRecorder::enabled());
        let (observed, _) = simulate_instrumented(
            &adg, &c.version, &c.schedule, &c.eval, c.config_path_len, &cfg, &tel,
        )
        .expect("instrumented run simulates");
        prop_assert_eq!(observed, plain); // SimReport equality covers firings
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("sim.engine.runs"), Some(1));
        prop_assert!(snap.counter("sim.engine.ticks").unwrap_or(0) > 0);
    }
}
